#include "native.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "algo/graphgen.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

using obliv::sched::NativeExecutor;
namespace algo = obliv::algo;
namespace simd = obliv::simd;

namespace {

// Sizes.  Each family takes roughly 5-25% of batch_t1_s on the reference
// host (README.md).  The working sets of scan, transpose, sort and spmdv
// exceed the 8 MiB per-core L2; matmul, gep, fft and listrank stay below
// it, since at that size their T1 would dominate the batch.
struct Sizes {
  std::uint64_t scan, transpose, matmul, gep, fft, sort, listrank, spmdv_side;
};

Sizes sizes(bool smoke) {
  if (smoke) return {1u << 14, 128, 64, 64, 1u << 12, 1u << 12, 1u << 12, 32};
  return {1u << 23, 2048, 512, 512, 1u << 18, 1u << 19, 1u << 14, 1024};
}

// Distinct streams per family so resizing one family leaves the others'
// inputs unchanged.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t family) {
  return seed * 0x9e3779b97f4a7c15ull + family;
}
obliv::util::Xoshiro256 stream(std::uint64_t seed, std::uint64_t family) {
  return obliv::util::Xoshiro256(stream_seed(seed, family));
}

}  // namespace

NativePhase::NativePhase(const Options& opt, Spans& spans)
    : opt_(opt), spans_(spans) {
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  ex1_ = std::make_unique<NativeExecutor>(1);
  ex4_ = std::make_unique<NativeExecutor>(std::min(4u, hc));
  const Sizes sz = sizes(opt.smoke);
  auto add = [&](Kind k, std::uint64_t n,
                 std::shared_ptr<const algo::SparseMatrix> spm = nullptr) {
    fams_.push_back({Instance(k, n, stream_seed(opt.seed, fams_.size() + 1),
                              opt.dist, std::move(spm)),
                     {}, {}});
  };
  add(Kind::kScan, sz.scan);
  add(Kind::kTranspose, sz.transpose);
  add(Kind::kMatmul, sz.matmul);
  add(Kind::kGep, sz.gep);
  add(Kind::kFft, sz.fft);
  add(Kind::kSort, sz.sort);
  add(Kind::kListRank, sz.listrank);
  add(Kind::kSpmdv, 0,
      std::make_shared<const algo::SparseMatrix>(
          algo::grid_matrix_reordered(sz.spmdv_side, opt.seed)));
}

double NativePhase::run_one(Family& f, NativeExecutor& ex, Report& rep,
                            const char* tag) {
  const std::string name = f.inst.name();
  f.inst.reset();
  double t = 0;
  {
    Scope s(spans_, "algo." + name + "." + tag);
    t = time_s([&] { f.inst.run(ex); });
  }
  rep.check(f.inst.check(*ex1_), "native " + name + " " + tag);
  return t;
}

void NativePhase::pass(Report& rep) {
  Scope s(spans_, "native.pass");
  for (Family& f : fams_) {
    f.t1.push_back(run_one(f, *ex1_, rep, "t1"));
    f.t4.push_back(run_one(f, *ex4_, rep, "t4"));
  }
}

void NativePhase::report_end_to_end(Report& rep) const {
  double t1 = 0;
  for (const Family& f : fams_) {
    t1 += median(f.t1);
    Report::log("  %-9s t1 %8.3f ms (median)  t4 %8.3f ms (fastest)",
                f.inst.name(), median(f.t1) * 1e3, quantile(f.t4, 0) * 1e3);
  }
  Report::log("native-batch: %zu passes, batch_t1 %.4f s",
              fams_.empty() ? std::size_t{0} : fams_[0].t1.size(), t1);
  rep.add("batch_t1_s", t1, "s");
}

double NativePhase::pass_t4(Report& rep) {
  double s = 0;
  for (Family& f : fams_) s += run_one(f, *ex4_, rep, "t4");
  return s;
}

namespace {

/// Median ns per element of `call` over `n` elements: each repetition runs
/// enough calls to last about 2 ms.
template <class F>
double kernel_ns_per_elem(std::uint64_t n, F&& call) {
  std::uint64_t iters = 1;
  while (time_s([&] {
           for (std::uint64_t i = 0; i < iters; ++i) call();
         }) < 2e-3) {
    iters *= 2;
  }
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    const double t = time_s([&] {
      for (std::uint64_t i = 0; i < iters; ++i) call();
    });
    reps.push_back(t * 1e9 / static_cast<double>(iters * n));
  }
  return median(reps);
}

void simd_layer(Report& rep, std::uint64_t seed) {
  auto rng = stream(seed, 100);
  auto fill = [&](std::vector<double>& v) {
    for (auto& x : v) x = rng.uniform();
  };
  // Leaf sizes: scan blocks of 2048, FFT butterfly passes of 512, I-GEP and
  // matmul base tiles of 8, grid-matrix rows of 5 nonzeros, transpose
  // gather blocks of 256.
  {
    const std::size_t n = 2048;
    std::vector<double> src(2 * n), dst(n);
    fill(src);
    rep.add("simd.pair_sum.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::pair_sum_f64(src.data(), dst.data(), n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 2048;
    std::vector<double> t(n), v(2 * n);
    fill(t);
    fill(v);
    rep.add("simd.scan_expand.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::scan_expand_f64(t.data(), v.data(), 1, n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 512;
    std::vector<double> ra(n), ia(n), rb(n), ib(n), wr(n), wi(n);
    for (auto* v : {&ra, &ia, &rb, &ib}) fill(*v);
    for (std::size_t j = 0; j < n; ++j) {
      wr[j] = std::cos(0.01 * static_cast<double>(j));
      wi[j] = std::sin(0.01 * static_cast<double>(j));
    }
    rep.add("simd.butterfly.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::butterfly_f64(ra.data(), ia.data(), rb.data(), ib.data(),
                                  wr.data(), wi.data(), n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 8;
    std::vector<double> y(n), v(n);
    fill(y);
    fill(v);
    rep.add("simd.fw_min.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::fw_min_f64(y.data(), v.data(), 0.25, n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 8;
    std::vector<double> y(n), v(n);
    fill(y);
    fill(v);
    // a = 0 keeps y bounded however often the kernel runs.
    rep.add("simd.axpy.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::axpy_f64(y.data(), v.data(), 0.0, n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 5;
    std::vector<algo::SpmEntry> row(n);
    std::vector<double> x(64);
    fill(x);
    for (std::size_t i = 0; i < n; ++i) row[i] = {rng.below(64), rng.uniform()};
    // The kernel's stride-2 contract: both streams view one entry array,
    // exactly as the SpM-DV leaf passes them.
    volatile double sink = 0;
    rep.add("simd.dot_strided.ns_per_elem", kernel_ns_per_elem(n, [&] {
              sink = simd::dot_strided_f64(&row[0].col, &row[0].val, 2,
                                           x.data(), n);
            }),
            "ns/elem");
  }
  {
    const std::size_t n = 256;
    std::vector<double> base(n * 16), dst(n);
    std::vector<std::uint64_t> idx(n);
    fill(base);
    for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 16) % base.size();
    rep.add("simd.gather.ns_per_elem", kernel_ns_per_elem(n, [&] {
              simd::gather_f64(base.data(), idx.data(), dst.data(), n);
            }),
            "ns/elem");
  }
}

/// Cost per task of an empty binary sb_parallel2 tree of depth `depth`.
double fork_join_ns(NativeExecutor& ex, int depth) {
  constexpr std::uint64_t kStealable = std::uint64_t{1} << 30;
  std::function<void(int)> rec = [&](int d) {
    if (d == 0) return;
    ex.sb_parallel2(kStealable, [&] { rec(d - 1); }, kStealable,
                    [&] { rec(d - 1); });
  };
  const double tasks = std::ldexp(1.0, depth + 1) - 2.0;
  rec(depth);  // warm
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) reps.push_back(time_s([&] { rec(depth); }) * 1e9 / tasks);
  return median(reps);
}

}  // namespace

void NativePhase::report_layers(Report& rep) {
  Scope s(spans_, "native.layers");
  {
    Scope k(spans_, "simd.kernels");
    simd_layer(rep, opt_.seed);
  }
  {
    Scope k(spans_, "sched.fork_join");
    const int depth = opt_.smoke ? 10 : 14;
    rep.add("sched.fork_join_ns.t1", fork_join_ns(*ex1_, depth), "ns");
    rep.add("sched.fork_join_ns.t4", fork_join_ns(*ex4_, depth), "ns");
  }
  double batch_t4 = 0;
  for (const Family& f : fams_) batch_t4 += quantile(f.t4, 0);
  rep.add("batch_t4_s", batch_t4, "s");
  for (const Family& f : fams_) {
    const std::string name = f.inst.name();
    const double t1 = quantile(f.t1, 0), t4 = quantile(f.t4, 0);
    rep.add("algo." + name + ".t1_ms", t1 * 1e3, "ms");
    rep.add("algo." + name + ".t4_ms", t4 * 1e3, "ms");
    rep.add("algo." + name + ".speedup_t4", t1 / t4, "x");
  }

  // Traced 4-thread pass: steals (count of the pool's steal-scan
  // histogram) and workers that emitted any event, per family.
  obliv::obs::Tracer tracer(ex4_->threads());
  const obliv::obs::Histogram* steal_hist = nullptr;
  ex4_->set_tracer(&tracer);
  steal_hist = tracer.counters().find_histogram("sched.steal.scan_ns");
  for (Family& f : fams_) {
    for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) tracer.ring(r).clear();
    const std::uint64_t before = steal_hist ? steal_hist->count() : 0;
    run_one(f, *ex4_, rep, "t4.traced");
    // Workers that emitted a spawn, steal or completion; the calling
    // thread counts even when the whole tree ran inline without events.
    std::uint64_t workers = 0;
    for (std::uint32_t r = 1; r < tracer.ring_count(); ++r) {
      workers += tracer.ring(r).pushed() > 0 ? 1 : 0;
    }
    workers += 1;
    const std::uint64_t steals = (steal_hist ? steal_hist->count() : 0) - before;
    rep.add(std::string("sched.steals.") + f.inst.name(), static_cast<double>(steals), "count");
    rep.add(std::string("sched.workers_used.") + f.inst.name(), static_cast<double>(workers),
            "count");
  }
  rep.add("sched.steal_scan_ns.p50",
          steal_hist ? static_cast<double>(steal_hist->percentile(50)) : 0.0,
          "ns");

  // Tracing overhead on the 4-thread batch: alternate untraced and traced
  // passes so host drift hits both sides.
  std::vector<double> off, on;
  for (int r = 0; r < 3; ++r) {
    ex4_->set_tracer(nullptr);
    off.push_back(pass_t4(rep));
    ex4_->set_tracer(&tracer);
    on.push_back(pass_t4(rep));
  }
  ex4_->set_tracer(nullptr);
  rep.add("obs.trace_overhead_pct.native-batch",
          100.0 * (median(on) / median(off) - 1.0), "%");
}

}  // namespace perfbench
