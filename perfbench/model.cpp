#include "model.hpp"

#include <limits>
#include <memory>
#include <thread>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "families.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/psim.hpp"
#include "no/colsort.hpp"
#include "no/fft.hpp"
#include "no/ngep.hpp"
#include "no/transpose.hpp"
#include "no/wrappers.hpp"
#include "obs/trace.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace algo = obliv::algo;
namespace hm = obliv::hm;
namespace no = obliv::no;
namespace sched = obliv::sched;

namespace {

const char* const kNames[ModelPhase::kProblems] = {
    "prefix_sum", "transpose", "matmul", "gep", "fft", "sort", "listrank"};

// bench_table2's sizes and NO fold M(p=8, B=4).
struct Sizes {
  std::uint64_t scan, transpose, matmul, gep, fft, fft_no, sort, sort_no,
      listrank;
};
Sizes sizes(bool smoke) {
  if (smoke) return {1 << 12, 64, 32, 32, 1 << 12, 1 << 10, 1 << 12, 1 << 10, 1 << 10};
  return {1 << 16, 256, 128, 128, 1 << 16, 1 << 12, 1 << 16, 1 << 14, 1 << 13};
}
constexpr std::uint32_t kNoP = 8;
constexpr std::uint64_t kNoB = 4;

}  // namespace

ModelPhase::ModelPhase(const Options& opt, Spans& spans)
    : opt_(opt), spans_(spans) {
  const Sizes sz = sizes(opt.smoke);
  obliv::util::Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ull + 400);
  gep_in_.resize(sz.gep * sz.gep);
  for (auto& v : gep_in_) v = rng.uniform();
  sort_in_.resize(sz.sort);
  for (auto& v : sort_in_) v = sort_key(opt.dist, rng);
  colsort_in_.resize(sz.sort_no);
  for (auto& v : colsort_in_) v = static_cast<std::int64_t>(rng.below(1u << 30));
  list_perm_ = list_order(sz.listrank, opt.dist, rng);
}

ModelPhase::Regen ModelPhase::regen(hm::PsimMode mode,
                                    obliv::obs::Tracer* tracer,
                                    std::size_t only,
                                    std::vector<hm::TraceEntry>* capture) {
  const Sizes sz = sizes(opt_.smoke);
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  sched::SimPolicy policy;
  policy.psim = mode;
  Regen out;
  const auto t_start = Clock::now();

  // Runs problem `i`: `mo` on a fresh SimExecutor (timed as the stack),
  // then `nos` on the NO machine it builds.
  auto problem = [&](std::size_t i, auto&& mo, auto&& nos) {
    if (only < kProblems && i != only) return;
    Counts& c = out.counts[i];
    Scope s(spans_, std::string("sim.") + kNames[i]);
    const auto t0 = Clock::now();
    {
      Scope st(spans_, std::string("sim.") + kNames[i] + ".stack");
      sched::SimExecutor ex(cfg, policy);
      if (tracer != nullptr) ex.set_tracer(tracer);
      if (capture != nullptr) ex.set_trace(capture);
      const sched::RunMetrics m = mo(ex);
      c.work = m.work;
      c.span = m.span;
      c.l1 = m.level_total_misses.size() > 0 ? m.level_total_misses[0] : 0;
      c.l2 = m.level_total_misses.size() > 1 ? m.level_total_misses[1] : 0;
      c.accesses = ex.cache_sim().total_accesses();
    }
    const auto t1 = Clock::now();
    out.stack_ms[i] = ms_between(t0, t1);
    {
      Scope sn(spans_, std::string("no.") + kNames[i]);
      std::unique_ptr<no::NoMachine> mach = nos();
      c.comm = mach->communication(0);
    }
    out.no_ms[i] = ms_between(t1, Clock::now());
  };
  auto machine = [&](std::uint64_t pes) {
    auto m = std::make_unique<no::NoMachine>(
        pes, std::vector<no::FoldConfig>{{kNoP, kNoB}});
    if (tracer != nullptr) m->set_tracer(tracer);
    return m;
  };

  problem(
      0,
      [&](sched::SimExecutor& ex) {
        auto buf = ex.make_buf<std::int64_t>(sz.scan);
        for (auto& v : buf.raw()) v = 1;
        return ex.run(2 * sz.scan, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
      },
      [&] {
        auto m = machine(32);
        std::vector<std::uint64_t> xs(sz.scan, 1);
        no::no_prefix_sum(*m, xs);
        return m;
      });
  problem(
      1,
      [&](sched::SimExecutor& ex) {
        const std::uint64_t n = sz.transpose;
        auto a = ex.make_buf<double>(n * n);
        auto o = ex.make_buf<double>(n * n);
        for (auto& v : a.raw()) v = 1.0;
        return ex.run(3 * n * n,
                      [&] { algo::mo_transpose(ex, a.ref(), o.ref(), n); });
      },
      [&] {
        const std::uint64_t n = sz.transpose;
        auto m = machine(n * n);
        std::vector<double> host(n * n, 1.0), host_out;
        no::no_transpose(*m, host, host_out, n);
        return m;
      });
  problem(
      2,
      [&](sched::SimExecutor& ex) {
        const std::uint64_t n = sz.matmul;
        auto c = ex.make_buf<double>(n * n);
        auto a = ex.make_buf<double>(n * n);
        auto b = ex.make_buf<double>(n * n);
        for (auto& v : a.raw()) v = 1.0;
        for (auto& v : b.raw()) v = 1.0;
        using Mat = sched::MatView<sched::SimRef<double>>;
        return ex.run(4 * n * n, [&] {
          algo::mo_matmul(ex, Mat::full(c.ref(), n, n), Mat::full(a.ref(), n, n),
                          Mat::full(b.ref(), n, n));
        });
      },
      [&] {
        const std::uint64_t n = sz.matmul;
        std::vector<double> x(4 * n * n, 1.0);
        algo::MatMulEmbedInstance::half = n;
        auto m = machine(256);
        no::n_gep<algo::MatMulEmbedInstance>(*m, x, 2 * n, true);
        return m;
      });
  problem(
      3,
      [&](sched::SimExecutor& ex) {
        const std::uint64_t n = sz.gep;
        auto buf = ex.make_buf<double>(n * n);
        buf.raw() = gep_in_;
        using Mat = sched::MatView<sched::SimRef<double>>;
        return ex.run(n * n, [&] {
          algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n));
        });
      },
      [&] {
        const std::uint64_t n = sz.gep;
        std::vector<double> x(n * n, 1.0);
        auto m = machine(256);
        no::n_gep<algo::FloydWarshallInstance>(*m, x, n, true);
        return m;
      });
  problem(
      4,
      [&](sched::SimExecutor& ex) {
        auto buf = ex.make_buf<algo::cplx>(sz.fft);
        for (auto& v : buf.raw()) v = algo::cplx(1.0, 0.0);
        return ex.run(6 * sz.fft, [&] { algo::mo_fft(ex, buf.ref()); });
      },
      [&] {
        auto m = machine(sz.fft_no);
        std::vector<algo::cplx> x(sz.fft_no, algo::cplx(1.0, 0.0));
        no::no_fft(*m, x);
        return m;
      });
  problem(
      5,
      [&](sched::SimExecutor& ex) {
        auto buf = ex.make_buf<std::uint64_t>(sz.sort);
        buf.raw() = sort_in_;
        return ex.run(4 * sz.sort, [&] { algo::spms_sort(ex, buf.ref()); });
      },
      [&] {
        const no::ColsortShape sh = no::colsort_shape(sz.sort_no);
        auto m = machine(sh.s + 1);
        std::vector<std::int64_t> keys = colsort_in_;
        no::no_columnsort(*m, keys, std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max());
        return m;
      });
  const std::uint64_t ln = list_perm_.size();
  std::vector<std::uint64_t> succ(ln, algo::kNil), pred(ln, algo::kNil);
  for (std::uint64_t t = 0; t + 1 < ln; ++t) {
    succ[list_perm_[t]] = list_perm_[t + 1];
    pred[list_perm_[t + 1]] = list_perm_[t];
  }
  problem(
      6,
      [&](sched::SimExecutor& ex) {
        auto sb = ex.make_buf<std::uint64_t>(ln);
        auto pb = ex.make_buf<std::uint64_t>(ln);
        auto db = ex.make_buf<std::uint64_t>(ln);
        sb.raw() = succ;
        pb.raw() = pred;
        return ex.run(8 * ln, [&] {
          algo::mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
        });
      },
      [&] {
        auto m = machine(32);
        no::no_list_rank(*m, succ, pred);
        return m;
      });
  out.total_s = seconds_between(t_start, Clock::now());
  return out;
}

void ModelPhase::check_counts(Report& rep, const Regen& r,
                              const char* tag) const {
  for (std::size_t i = 0; i < kProblems; ++i) {
    rep.check(r.counts[i] == serial_.counts[i],
              std::string("model ") + kNames[i] + " counters (" + tag +
                  ") differ from the serial engine");
  }
}

void ModelPhase::serial_reference() {
  Scope s(spans_, "model.regen.serial");
  serial_ = regen(hm::PsimMode::kSerial, nullptr);
}

void ModelPhase::regen_default(Report& rep) {
  Scope s(spans_, "model.regen.default");
  runs_.push_back(regen(hm::PsimMode::kAuto, nullptr));
  check_counts(rep, runs_.back(), "default engine");
}

void ModelPhase::report_end_to_end(Report& rep) const {
  double total = 0;
  for (std::size_t i = 0; i < kProblems; ++i) {
    std::vector<double> t;
    for (const Regen& r : runs_) t.push_back(r.stack_ms[i] + r.no_ms[i]);
    total += median(t) / 1e3;
  }
  Report::log("model-table2: %zu default regenerations, table2 %.4f s; "
              "serial engine %.4f s",
              runs_.size(), total, serial_.total_s);
  rep.add("table2_s", total, "s");
}

void ModelPhase::report_layers(Report& rep) {
  Scope s(spans_, "model.layers");
  Counts sum;
  for (const Counts& c : serial_.counts) {
    sum.work += c.work;
    sum.span += c.span;
    sum.accesses += c.accesses;
    sum.l1 += c.l1;
    sum.l2 += c.l2;
    sum.comm += c.comm;
  }
  rep.add("hm.accesses", static_cast<double>(sum.accesses), "count");
  rep.add("hm.L1.misses", static_cast<double>(sum.l1), "count");
  rep.add("hm.L2.misses", static_cast<double>(sum.l2), "count");
  rep.add("sim.work", static_cast<double>(sum.work), "count");
  rep.add("sim.span", static_cast<double>(sum.span), "count");
  rep.add("no.comm_words", static_cast<double>(sum.comm), "count");
  rep.add("hm.serial_table2_s", serial_.total_s, "s");

  double no_ms = 0;
  for (std::size_t i = 0; i < kProblems; ++i) {
    std::vector<double> t;
    for (const Regen& r : runs_) t.push_back(r.no_ms[i]);
    no_ms += quantile(t, 0);
  }
  rep.add("no.total_ms", no_ms, "ms");

  // Capture each problem's access trace, then replay it through the serial
  // CacheSim and through ShardedCacheSim at nproc threads.
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const unsigned threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  double entries = 0, serial_s = 0, sharded_s = 0;
  for (std::size_t i = 0; i < kProblems; ++i) {
    std::vector<hm::TraceEntry> tr;
    {
      Scope c(spans_, std::string("hm.capture.") + kNames[i]);
      const Regen captured = regen(hm::PsimMode::kAuto, nullptr, i, &tr);
      rep.check(captured.counts[i] == serial_.counts[i],
                std::string("model ") + kNames[i] + " counters (trace capture)");
    }
    entries += static_cast<double>(tr.size());
    std::vector<double> ser, sha;
    for (int r = 0; r < 3; ++r) {
      {
        hm::CacheSim sim(cfg);
        ser.push_back(time_s([&] {
          for (const hm::TraceEntry& e : tr) sim.access(e.core, e.addr, e.words, e.write);
        }));
        rep.check(sim.total_accesses() == serial_.counts[i].accesses,
                  std::string("serial replay accesses of ") + kNames[i]);
      }
      {
        hm::CacheSim sim(cfg);
        hm::ShardedCacheSim sharded(sim, threads);
        sha.push_back(time_s([&] { sharded.replay(tr.data(), tr.size()); }));
        rep.check(sim.total_accesses() == serial_.counts[i].accesses,
                  std::string("sharded replay accesses of ") + kNames[i]);
      }
    }
    const double replay_ms = median(ser) * 1e3;
    serial_s += median(ser);
    sharded_s += median(sha);
    std::vector<double> stack;
    for (const Regen& r : runs_) stack.push_back(r.stack_ms[i]);
    const double stack_ms = quantile(stack, 0);
    rep.add(std::string("sim.") + kNames[i] + ".stack_ms", stack_ms, "ms");
    rep.add(std::string("sim.") + kNames[i] + ".self_ms", stack_ms - replay_ms,
            "ms");
  }
  const double serial_rate = entries / serial_s / 1e6;
  const double sharded_rate = entries / sharded_s / 1e6;
  rep.add("hm.serial_maccess_s", serial_rate, "Macc/s");
  rep.add("hm.sharded_maccess_s", sharded_rate, "Macc/s");
  rep.add("hm.sharded_over_serial", sharded_rate / serial_rate, "x");
  Report::log("model-table2 replay: %.0f trace entries, serial %.2f Macc/s, "
              "sharded(%u) %.2f Macc/s",
              entries, serial_rate, threads, sharded_rate);

  // Tracing overhead: one regeneration with tracers attached to every
  // SimExecutor and NoMachine, against the fastest untraced one.
  obliv::obs::Tracer tracer(1);
  Regen traced;
  {
    Scope t(spans_, "model.regen.traced");
    traced = regen(hm::PsimMode::kAuto, &tracer);
  }
  check_counts(rep, traced, "traced");
  std::vector<double> totals;
  for (const Regen& r : runs_) totals.push_back(r.total_s);
  rep.add("obs.trace_overhead_pct.model-table2",
          100.0 * (traced.total_s / quantile(totals, 0) - 1.0), "%");
}

}  // namespace perfbench
