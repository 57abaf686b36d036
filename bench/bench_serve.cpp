// Serving-layer benchmark: open-loop latency under load + the serving
// overhead guardrail.
//
// Default mode drives obliv::serve::Server with an open-loop traffic
// generator: job arrival times are fixed in advance (t_i = i / QPS,
// submitted by a clock, never by completions), so when the server falls
// behind, queueing delay shows up in the measured latency instead of
// silently throttling the offered load -- the standard way to expose tail
// latency that closed-loop generators hide.  Job sizes are heavy-tailed
// (bounded Pareto), families mixed, everything seeded.  Per-QPS-point
// results (p50/p99/p999 latency, goodput) land in BENCH_serve.json, plus
// one record for the measured single-job serving overhead, via the shared
// bench::write_json_env_header() preamble.
//
// `--serve-off-check` is the CI guardrail: serving a single job through
// submit/admission/fork/complete must cost <= max(5%, A/A noise + 1%) over
// invoking the same algorithm directly on a NativeExecutor, measured by
// the shared bench::paired_overhead loop (bench/common.hpp).
// `--cancel-off-check` gates the cancellation plumbing the same way.
// `--smoke` measures and prints but does not gate.
//
// On a 1-core container the numbers show serving overhead and queueing,
// not parallel speedup; BENCH_serve.json records hardware_concurrency so
// rows from different hosts are never compared as like-for-like.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algo/sort.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "sched/cancel.hpp"
#include "sched/native_executor.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/workloads.hpp"

namespace obliv {
namespace {

using Clock = std::chrono::steady_clock;
using sched::NatRef;

template <class T>
NatRef<T> ref_of(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

// ---------------------------------------------------------------------------
// BENCH_serve.json
// ---------------------------------------------------------------------------

struct ServeRecord {
  std::string bench;      ///< "serve:openloop", "serve:cancel", "serve:shed",
                          ///< "serve:off_check", "serve:cancel_off_check"
  unsigned threads = 0;
  double qps = 0;         ///< offered load (0 for the off_check rows)
  std::uint64_t jobs = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;  ///< cancel row: jobs poisoned mid-flight
  std::uint64_t shed = 0;       ///< shed row: admissions refused by overload
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;  ///< over ok jobs only
  double goodput_jps = 0;  ///< completed_ok / wall seconds
  double overhead_pct = 0; ///< off_check rows: wrapped vs direct
  double noise_pct = 0;    ///< off_check rows: A/A pairing noise
};

class ServeRecorder {
 public:
  ServeRecorder(std::string path, std::uint64_t seed)
      : path_(std::move(path)), seed_(seed) {}

  void add(ServeRecord r) { records_.push_back(std::move(r)); }

  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write " << path_ << "\n";
      return false;
    }
    bench::write_json_env_header(out);
    // Generator seed in the header (not per record): one seed drives every
    // open-loop row of a run -- the reproduction knob, same convention as
    // OBLIV_FAULT_SEED for the fault fuzzer.
    out << "  \"seed\": " << seed_ << ",\n";
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const ServeRecord& r = records_[i];
      out << "    {\"bench\": \"" << r.bench
          << "\", \"threads\": " << r.threads
          << ", \"qps\": " << util::Table::fmt(r.qps, "%.0f")
          << ", \"jobs\": " << r.jobs
          << ", \"completed_ok\": " << r.completed_ok
          << ", \"rejected\": " << r.rejected
          << ", \"cancelled\": " << r.cancelled
          << ", \"shed\": " << r.shed
          << ", \"p50_ms\": " << util::Table::fmt(r.p50_ms, "%.3f")
          << ", \"p99_ms\": " << util::Table::fmt(r.p99_ms, "%.3f")
          << ", \"p999_ms\": " << util::Table::fmt(r.p999_ms, "%.3f")
          << ", \"goodput_jps\": " << util::Table::fmt(r.goodput_jps, "%.1f")
          << ", \"overhead_pct\": " << util::Table::fmt(r.overhead_pct, "%.2f")
          << ", \"noise_pct\": " << util::Table::fmt(r.noise_pct, "%.2f")
          << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path_ << " (" << records_.size()
              << " records, git_rev=" << bench::git_rev() << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::uint64_t seed_;
  std::vector<ServeRecord> records_;
};

// ---------------------------------------------------------------------------
// Open-loop traffic generation
// ---------------------------------------------------------------------------

/// One generated job: a registry instance (owned buffers) and its handle.
/// Inputs are generated before the timed schedule starts, so generation
/// cost never pollutes the latency measurement.
struct GenJob {
  workload::Instance<sched::NativeExecutor> inst;
  serve::JobHandle handle;
};

/// Bounded Pareto sample in [lo, hi] (alpha ~ 1.3: most jobs small, a
/// heavy tail of large ones -- the canonical serving size distribution).
std::uint64_t pareto_size(util::Xoshiro256& rng, std::uint64_t lo,
                          std::uint64_t hi) {
  const double alpha = 1.3;
  const double u = std::max(rng.uniform(), 1e-12);
  const double v = double(lo) / std::pow(u, 1.0 / alpha);
  return std::min<std::uint64_t>(hi, std::max<std::uint64_t>(
                                         lo, std::uint64_t(v)));
}

GenJob generate_job(sched::NativeExecutor& alloc, util::Xoshiro256& rng) {
  const std::uint64_t pick = rng.below(100);
  workload::Kind kind;
  std::uint64_t n;
  if (pick < 40) {  // 40% sort
    kind = workload::Kind::kSort;
    n = pareto_size(rng, 256, 16384);
  } else if (pick < 70) {  // 30% scan
    kind = workload::Kind::kScan;
    n = pareto_size(rng, 512, 32768);
  } else if (pick < 85) {  // 15% FFT, power-of-two sizes 256..4096
    kind = workload::Kind::kFft;
    n = std::uint64_t(1) << (8 + rng.below(5));
  } else {  // 15% transpose, power-of-two sides 8..64
    kind = workload::Kind::kTranspose;
    n = std::uint64_t(1) << (3 + rng.below(4));
  }
  return {{alloc, kind, n, rng()}, {}};
}

double pct_ms(std::vector<double>& lat_ns, double p) {
  if (lat_ns.empty()) return 0;
  std::sort(lat_ns.begin(), lat_ns.end());
  const std::size_t idx = std::min(
      lat_ns.size() - 1,
      std::size_t(std::ceil(p / 100.0 * double(lat_ns.size())) - 1));
  return lat_ns[idx] / 1e6;
}

/// Knobs for the PR 10 rows: client-side cancellation pressure and
/// server-side overload shedding layered onto the open-loop schedule.
struct LoadShape {
  std::uint64_t cancel_every = 0;      ///< cancel every k-th job (0 = off)
  std::uint64_t shed_wait_p99_ns = 0;  ///< ServerOptions::shed_wait_p99_ns
};

/// One open-loop point: `jobs` requests offered at `qps`, latencies from
/// *scheduled* submit time to observed completion.  Completions are
/// observed by a collector thread waiting handles in submit order; with
/// FIFO head-only admission jobs complete nearly in order, so the
/// observation error is bounded by one job's service time.  Percentiles
/// cover ok jobs only -- cancelled / condemned jobs complete early and
/// would flatter the tail.
ServeRecord run_open_loop(unsigned threads, double qps, std::size_t jobs,
                          std::uint64_t seed, obs::Tracer* tracer = nullptr,
                          const LoadShape& shape = {}) {
  util::Xoshiro256 rng(seed);
  sched::NativeExecutor alloc(1);
  std::vector<GenJob> gen;
  gen.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    gen.push_back(generate_job(alloc, rng));
  }

  serve::ServerOptions o;
  o.threads = threads;
  o.queue_capacity = jobs;  // rejections would hide queueing in the tail
  o.shed_wait_p99_ns = shape.shed_wait_p99_ns;
  serve::Server srv(o);
  if (tracer != nullptr) srv.set_tracer(tracer);

  std::vector<double> lat_ns(jobs, 0.0);
  std::vector<Clock::time_point> sched(jobs);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < jobs; ++i) {
    sched[i] = t0 + std::chrono::nanoseconds(
                        std::uint64_t(double(i) * 1e9 / qps));
  }

  // Collector: timestamps completions in submit order, concurrently with
  // the submit loop (waiting at the end would misread early completions).
  // `submitted` is the publish point for gen[i].handle.
  std::atomic<std::size_t> submitted{0};
  std::vector<std::uint8_t> finished_ok(jobs, 0);
  std::thread collector([&] {
    for (std::size_t i = 0; i < jobs; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      if (!gen[i].handle.valid()) continue;  // rejected or shed at submit
      finished_ok[i] = gen[i].handle.wait().ok() ? 1 : 0;
      lat_ns[i] = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - sched[i])
                             .count());
    }
  });

  for (std::size_t i = 0; i < jobs; ++i) {
    std::this_thread::sleep_until(sched[i]);
    auto r = srv.submit(gen[i].inst.request());
    if (r.ok()) gen[i].handle = r.value();  // refusals land in stats()
    submitted.store(i + 1, std::memory_order_release);
    // Client-side cancellation pressure: poison every k-th job right
    // after submit, while it is still queued or freshly running.  (A
    // deferred canceller thread loses every race on a fast host -- these
    // jobs finish in ~0.1 ms -- and the row degenerates to openloop.)
    if (shape.cancel_every > 0 && gen[i].handle.valid() &&
        (i + 1) % shape.cancel_every == 0) {
      gen[i].handle.cancel();
    }
  }
  collector.join();
  const auto t_end = Clock::now();
  srv.shutdown();

  const serve::ServerStats st = srv.stats();
  std::vector<double> lat;
  lat.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    if (gen[i].handle.valid() && finished_ok[i]) lat.push_back(lat_ns[i]);
  }
  const double wall_s =
      double(std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t0)
                 .count()) /
      1e9;

  ServeRecord rec;
  rec.bench = shape.cancel_every > 0       ? "serve:cancel"
              : shape.shed_wait_p99_ns > 0 ? "serve:shed"
                                           : "serve:openloop";
  rec.threads = srv.threads();
  rec.qps = qps;
  rec.jobs = jobs;
  rec.completed_ok = st.completed_ok;
  // Disjoint refusal classes: `rejected` is queue-capacity, `shed` is the
  // overload controller.
  rec.rejected = st.rejected;
  rec.cancelled = st.cancelled;
  rec.shed = st.shed;
  rec.p50_ms = pct_ms(lat, 50);
  rec.p99_ms = pct_ms(lat, 99);
  rec.p999_ms = pct_ms(lat, 99.9);
  rec.goodput_jps = wall_s > 0 ? double(st.completed_ok) / wall_s : 0;
  return rec;
}

// ---------------------------------------------------------------------------
// Serving overhead vs direct invocation
// ---------------------------------------------------------------------------

/// The single job both serving guardrails time: a 2^15-key SPMS sort on
/// an executor configured like the server's own pool.
struct SortJob {
  serve::ServerOptions opts;
  sched::NativeExecutor ex{opts.threads, opts.sequential_grain_words,
                           sched::SchedMode::kWorkSteal};
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(1 << 15);
  std::vector<std::uint64_t> buf;

  SortJob() {
    util::Xoshiro256 rng(4242);
    for (auto& x : keys) x = rng();
  }

  void direct() {
    buf = keys;
    algo::spms_sort(ex, ref_of(buf));
  }
};

/// One served sort job vs the same sort run directly, under `g`'s budget.
bench::Overhead serve_overhead(bench::Guardrail& g) {
  SortJob job;
  serve::Server srv(job.opts);
  return g.check("sort 2^15", bench::timed([&] { job.direct(); }),
                 bench::timed([&] {
                   job.buf = job.keys;
                   auto r = srv.submit(serve::SortRequest{ref_of(job.buf)});
                   if (r.ok()) r.value().wait();
                 }));
}

bench::Guardrail serve_guardrail(int reps, bool gated) {
  return bench::Guardrail("serving overhead vs direct invocation",
                          {"job", "direct ns", "served ns"}, reps,
                          bench::Budget{5.0, gated});
}

/// `--serve-off-check`: the serving path must be (nearly) free.
int serve_off_check(bool smoke, int reps) {
  bench::Guardrail g = serve_guardrail(reps, !smoke);
  serve_overhead(g);
  return g.finish("serving overhead within budget",
                  "serving overhead exceeds the budget");
}

/// `--cancel-off-check`: the PR 10 poison-check plumbing must be free on a
/// job that is never cancelled -- the same sort, direct on one executor,
/// with and without a live (never-poisoned) CancelToken installed.
/// Isolates the per-fork/per-anchor token load from the serving-path
/// costs that --serve-off-check already gates.
int cancel_off_check(bool smoke, int reps) {
  bench::Guardrail g("cancel-token overhead on uncancelled jobs",
                     {"job", "no token ns", "token installed ns"}, reps,
                     bench::Budget{5.0, !smoke});
  SortJob job;
  sched::CancelToken token;  // installed but never poisoned
  g.check("sort 2^15", bench::timed([&] { job.direct(); }),
          bench::timed([&] {
            sched::ScopedCancelToken guard(&token);
            job.direct();
          }));
  return g.finish("cancel-check overhead within budget",
                  "cancel-check overhead exceeds the budget");
}

}  // namespace
}  // namespace obliv

int main(int argc, char** argv) {
  const bool smoke = obliv::bench::smoke(argc, argv);
  bool off_check = false, cancel_check = false;
  std::uint64_t seed = 0xD15C0;  // default kept from the PR 9 runs
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--serve-off-check") off_check = true;
    if (arg == "--cancel-off-check") cancel_check = true;
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 0);
    }
  }
  const int reps = smoke ? 5 : 15;
  if (off_check) return obliv::serve_off_check(smoke, reps);
  if (cancel_check) return obliv::cancel_off_check(smoke, reps);

  obliv::bench::print_header("serve: open-loop latency under load");
  std::printf("threads = %u, pinned = %s, seed = 0x%llx%s\n",
              obliv::bench::host_concurrency(),
              obliv::bench::threads_pinned() ? "yes" : "no",
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  obliv::ServeRecorder json("BENCH_serve.json", seed);
  const auto qps_points = obliv::bench::sweep<double>(smoke, {100, 400, 800});
  const std::size_t jobs = smoke ? 80 : 600;

  // Unified trace-output contract (--trace-out= / OBLIV_TRACE_OUT): when a
  // path is given the first open-loop point runs with a tracer attached and
  // its job-lane events are exported for `obliv-trace analyze`.
  const std::string trace_out = obliv::obs::resolve_trace_out(argc, argv);
  obliv::obs::Tracer tracer(
      std::max(1u, obliv::bench::host_concurrency()) + 1);

  obliv::util::Table t({"row", "qps", "jobs", "ok", "cancel", "shed",
                        "p50 ms", "p99 ms", "p999 ms", "goodput j/s"});
  auto add_row = [&](const obliv::ServeRecord& r) {
    t.add_row({r.bench.substr(r.bench.find(':') + 1),
               obliv::util::Table::fmt(r.qps, "%.0f"), std::to_string(r.jobs),
               std::to_string(r.completed_ok), std::to_string(r.cancelled),
               std::to_string(r.shed),
               obliv::util::Table::fmt(r.p50_ms, "%.3f"),
               obliv::util::Table::fmt(r.p99_ms, "%.3f"),
               obliv::util::Table::fmt(r.p999_ms, "%.3f"),
               obliv::util::Table::fmt(r.goodput_jps, "%.1f")});
    json.add(r);
  };
  bool traced = false;
  for (double qps : qps_points) {
    obliv::obs::Tracer* tr =
        (!trace_out.empty() && !traced) ? &tracer : nullptr;
    traced = traced || tr != nullptr;
    add_row(obliv::run_open_loop(/*threads=*/0, qps, jobs, seed, tr));
  }

  // PR 10 rows: client cancellation pressure at the highest offered load
  // (every 4th job poisoned at submit, a mix of queued and mid-run), then
  // overload shedding.  The shed row must actually overload the server --
  // at these job sizes capacity is ~10k jobs/s/thread, so it offers 32x
  // the sweep's top rate to keep a standing backlog against the 200 us
  // wait-p99 threshold.  Tails are over surviving ok jobs in both rows.
  const double top_qps = qps_points.back();
  obliv::LoadShape cancel_shape;
  cancel_shape.cancel_every = 4;
  add_row(obliv::run_open_loop(/*threads=*/0, top_qps, jobs, seed, nullptr,
                               cancel_shape));
  obliv::LoadShape shed_shape;
  shed_shape.shed_wait_p99_ns = 200'000;
  add_row(obliv::run_open_loop(/*threads=*/0, top_qps * 32, jobs, seed,
                               nullptr, shed_shape));
  t.print(std::cout);

  // The overhead measurement rides along in the JSON (ungated here; the
  // gate is the separate --serve-off-check ctest entry).
  obliv::bench::Guardrail g = obliv::serve_guardrail(reps, /*gated=*/false);
  const obliv::bench::Overhead m = obliv::serve_overhead(g);
  g.print();
  obliv::ServeRecord oc;
  oc.bench = "serve:off_check";
  oc.threads = obliv::bench::host_concurrency();
  oc.jobs = 1;
  oc.overhead_pct = m.over_pct;
  oc.noise_pct = m.noise_pct;
  json.add(oc);

  json.write();
  if (traced && obliv::obs::write_chrome_trace(trace_out, tracer)) {
    std::printf("trace written to %s (analyze with tools/obliv-trace)\n",
                trace_out.c_str());
  }
  return 0;
}
