// Wall-clock benchmarks of the MO algorithms on the *native* executor
// (real std::threads on the host machine, work-stealing scheduler).
//
// For every workload the harness sweeps threads in {1,2,4,8}, reports
// min-of-K ns per operation and the self-relative speedup (T1/Tp -- the
// portable quantity on any host), and dumps every record to
// BENCH_wallclock.json (sched="steal") so the perf trajectory is trackable
// across PRs.  On a host with fewer cores than the thread count,
// multi-thread rows measure scheduler overhead instead of parallel speedup.
//
// Measurement discipline for noisy (shared/virtualised) hosts: all thread
// cells of a workload are timed round-robin inside each repetition, so
// every cell samples the same interference windows, and the reported
// figure is the *minimum* across repetitions -- external load only ever
// adds time, so the min is the best estimate of intrinsic cost.
// Sequential per-cell sweeps (cells minutes apart) would let a load burst
// corrupt one cell and distort the speedup curve.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/simd_kernel_benches.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/simd.hpp"
#include "workload/workloads.hpp"

using namespace obliv;

namespace {

using Exec = sched::NativeExecutor;

struct Workload {
  std::string name;
  // One input per workload, shared by every thread cell:
  // per-cell allocations would give each cell its own page-placement /
  // hugepage luck -- a bias that sticks for the whole run and that no
  // amount of repetition averages out of a cross-cell comparison.
  std::shared_ptr<workload::Instance<Exec>> inst;

  /// Problem size as reported (rows for spmdv).
  std::uint64_t n() const { return inst->size(); }

  /// One run on `ex`, timed; the input is restored first, untimed.
  double time_on(Exec& ex) const {
    inst->reset();
    return bench::time_once_ns([&] { inst->run(ex); });
  }
};

std::vector<Workload> workloads(bool smoke) {
  struct Row {
    const char* name;
    workload::Kind kind;
    std::uint64_t smoke_n, n, seed;
  };
  constexpr Row kRows[] = {
      {"scan", workload::Kind::kScan, 1u << 16, 1u << 20, 1},
      {"transpose", workload::Kind::kTranspose, 256, 1024, 2},
      {"matmul", workload::Kind::kMatmul, 64, 128, 3},
      {"sort", workload::Kind::kSort, 1u << 12, 1u << 16, 4},
      {"fft", workload::Kind::kFft, 1u << 12, 1u << 16, 5},
      {"igep-fw", workload::Kind::kGep, 48, 128, 6},
      {"spmdv", workload::Kind::kSpmdv, 32, 128, 7},  // grid side
  };
  // Buffers are plain memory, so any executor can allocate them and any
  // pool can run them.
  Exec alloc(1);
  std::vector<Workload> w;
  for (const Row& r : kRows) {
    w.push_back({r.name, std::make_shared<workload::Instance<Exec>>(
                             alloc, r.kind, smoke ? r.smoke_n : r.n, r.seed)});
  }
  return w;
}

/// Worker count of the executor every overhead mode below measures on.
constexpr unsigned kCheckThreads = 4;

/// `--trace` mode: the same workloads with an obs::Tracer attached vs
/// detached, timed by the paired-overhead loop in
/// measure-only mode.  Exports the traced runs of the first workload as a
/// Chrome trace.
int trace_overhead(bool smoke, int reps, const std::string& trace_path) {
  bench::Guardrail g("obs tracing overhead: native executor",
                     {"workload", "untraced ns/op", "traced ns/op"}, reps,
                     bench::Budget{0, /*gated=*/false});
  std::printf("threads = %u\n", kCheckThreads);
  bool wrote = false;
  for (const auto& w : workloads(smoke)) {
    Exec ex(kCheckThreads, 1 << 12);
    obs::Tracer tracer(kCheckThreads);
    g.check(w.name, [&] { return w.time_on(ex); }, [&] {
      ex.set_tracer(&tracer);
      const double ns = w.time_on(ex);
      ex.set_tracer(nullptr);
      return ns;
    });
    if (!wrote) wrote = obs::write_chrome_trace(trace_path, tracer);
  }
  g.print();
  if (wrote) {
    std::cout << "\nfirst workload's traced runs -> " << trace_path
              << " (events: spawn/steal/complete per worker)\n";
  }
  return 0;
}

/// `--hist-off-check` mode: the guardrail for the histogram metrics.  A
/// *detached* tracer (the state every untraced run is in) must cost
/// nothing: every histogram site sits behind the executor's `tracer_ !=
/// nullptr` branch.  The measurable upper bound is a tracer attached with
/// events disabled (set_events_enabled(false)): histogram record() calls
/// -- a handful of relaxed atomics -- fire, ring traffic does not.  Budget
/// max(1%, A/A noise + 1%).
int hist_off_check(bool smoke, int reps) {
  bench::Guardrail g("histogram metrics overhead when no tracer attached",
                     {"workload", "detached ns/op", "metrics-only ns/op"},
                     reps, bench::Budget{1.0, !smoke});
  std::printf("threads = %u\n", kCheckThreads);
  // The metrics-only cells must actually record distributions -- otherwise
  // the gate would be vacuously green.
  obs::Tracer tracer(kCheckThreads);
  tracer.set_events_enabled(false);
  for (const auto& w : workloads(smoke)) {
    Exec ex(kCheckThreads, 1 << 12);
    g.check(w.name, [&] { return w.time_on(ex); }, [&] {
      ex.set_tracer(&tracer);
      const double ns = w.time_on(ex);
      ex.set_tracer(nullptr);
      return ns;
    });
  }
  const std::uint64_t samples = bench::histogram_samples(tracer);
  std::printf("histogram samples recorded in metrics-only mode: %llu\n",
              static_cast<unsigned long long>(samples));
  g.require(samples > 0, "no histogram site fired; the guardrail is vacuous");
  return g.finish("histogram metrics free when no tracer is attached",
                  "histogram metrics exceed the no-tracer budget");
}

/// `--fault-off-check` mode: the guardrail for the fault-injection layer.
/// An *inactive* layer (no plan attached -- the state every production run
/// is in) must cost nothing: each hook is one pointer load
/// and branch.  An attached-but-inert plan is the measurable upper bound
/// on that cost (same hooks plus one probability load + branch each).
/// Budget max(1%, A/A noise + 1%).
int fault_off_check(bool smoke, int reps) {
  bench::Guardrail g("fault-injection layer overhead when inactive",
                     {"workload", "detached ns/op", "inert ns/op"}, reps,
                     bench::Budget{1.0, !smoke});
  std::printf("threads = %u\n", kCheckThreads);
  fault::FaultPlan inert(1, fault::FaultOptions::inert());
  for (const auto& w : workloads(smoke)) {
    Exec ex(kCheckThreads, 1 << 12);
    g.check(w.name, [&] { return w.time_on(ex); }, [&] {
      ex.set_fault_plan(&inert);
      const double ns = w.time_on(ex);
      ex.set_fault_plan(nullptr);
      return ns;
    });
  }
  return g.finish("inactive fault layer within budget",
                  "inactive fault layer exceeds the overhead budget");
}

// ---------------------------------------------------------------------------
// SIMD kernel scaling rows
// ---------------------------------------------------------------------------

// KernelBench + kernel_benches() live in bench/simd_kernel_benches.hpp,
// shared with bench_native_cache's hardware-counter validation section.
using bench::kernel_benches;

/// Default-run section: every kernel family timed under Mode::kAuto (vector
/// when the host supports it) and Mode::kScalar (the OBLIV_SIMD=OFF
/// arithmetic), reps interleaved so both modes sample the same interference
/// windows.  Rows land in BENCH_wallclock.json as bench="simd:<family>",
/// sched="auto"|"scalar"; the printed ratio column is scalar/auto (>1 means
/// the vector path wins) with a geometric mean over families.
void simd_kernel_section(bool smoke, int reps, bench::JsonRecorder& json) {
  bench::print_header("SIMD kernels: scalar vs vector dispatch");
  std::printf("active ISA under kAuto: %s (lane width %u), compiled %s\n",
              simd::active_isa(), simd::lane_width(),
              simd::kSimdBuilt ? "in" : "out");
  util::Table t({"kernel", "n", "scalar ns/op", "auto ns/op", "scalar/auto"});
  double log_sum = 0.0;
  std::size_t families = 0;
  for (auto& kb : kernel_benches(smoke)) {
    double best_auto = 0.0, best_scalar = 0.0;
    kb.run();  // warm-up (whatever mode; touches the buffers)
    for (int r = 0; r < reps; ++r) {
      double a, s;
      if (r % 2 == 0) {
        {
          simd::ScopedMode m(simd::Mode::kAuto);
          a = bench::time_once_ns(kb.run);
        }
        {
          simd::ScopedMode m(simd::Mode::kScalar);
          s = bench::time_once_ns(kb.run);
        }
      } else {
        {
          simd::ScopedMode m(simd::Mode::kScalar);
          s = bench::time_once_ns(kb.run);
        }
        {
          simd::ScopedMode m(simd::Mode::kAuto);
          a = bench::time_once_ns(kb.run);
        }
      }
      if (r == 0 || a < best_auto) best_auto = a;
      if (r == 0 || s < best_scalar) best_scalar = s;
    }
    const double ops = static_cast<double>(kb.n) * static_cast<double>(kb.iters);
    const double auto_ns = best_auto / ops, scalar_ns = best_scalar / ops;
    json.add("simd:" + kb.name, "scalar", 1, kb.n, scalar_ns, reps);
    json.add("simd:" + kb.name, "auto", 1, kb.n, auto_ns, reps);
    t.add_row({kb.name, util::Table::fmt(kb.n),
               util::Table::fmt(scalar_ns, "%.3f"),
               util::Table::fmt(auto_ns, "%.3f"),
               util::Table::fmt(scalar_ns / auto_ns, "%.2f")});
    log_sum += std::log(scalar_ns / auto_ns);
    ++families;
  }
  t.print(std::cout);
  std::printf("geomean scalar/auto speedup over %zu families: %.2fx%s\n",
              families, std::exp(log_sum / static_cast<double>(families)),
              simd::vector_active() ? "" : "  (vector path inactive: ~1.0x)");
}

/// `--simd-off-check` mode: the guardrail for the kernel dispatch layer.
/// Mode::kScalar runs the same arithmetic an OBLIV_SIMD=OFF build runs;
/// Mode::kGeneric makes use_kernels() false, so leaves take their pre-kernel
/// generic loops.  The scalar kernel paths must not be materially slower
/// than those generic loops -- otherwise turning SIMD off (or running on a
/// non-vector host) would regress below the pre-SIMD baseline.  Budget
/// max(5%, A/A noise + 1%) -- 5% because scalar kernels and generic loops
/// are genuinely different code, not one branch apart.
int simd_off_check(bool smoke, int reps) {
  bench::Guardrail g("scalar kernel paths vs pre-kernel generic loops",
                     {"workload", "generic ns/op", "scalar ns/op"}, reps,
                     bench::Budget{5.0, !smoke});
  std::printf("threads = %u, simd compiled %s\n", kCheckThreads,
              simd::kSimdBuilt ? "in" : "out");
  for (const auto& w : workloads(smoke)) {
    Exec ex(kCheckThreads, 1 << 12);
    auto in_mode = [&](simd::Mode mode) {
      return [&w, &ex, mode] {
        simd::ScopedMode m(mode);
        return w.time_on(ex);
      };
    };
    g.check(w.name, in_mode(simd::Mode::kGeneric), in_mode(simd::Mode::kScalar));
  }
  return g.finish("scalar kernel paths hold up against the generic loops",
                  "scalar kernel paths regress past the generic loops");
}

}  // namespace

int main(int argc, char** argv) {
  // bench_wallclock [--quick | --reps N | --smoke | --trace |
  // --fault-off-check | --hist-off-check | --simd-off-check]: more reps ->
  // tighter minima on a noisy host;
  // --trace measures obs tracing overhead; --fault-off-check gates the
  // inactive fault-injection layer's overhead; --simd-off-check gates the
  // scalar kernel paths against the pre-kernel generic loops.
  int reps = 5;
  bool smoke = false, trace = false, fault_check = false,
       hist_check = false, simd_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") reps = 3;
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[i + 1]));
    }
    if (arg == "--smoke") {
      smoke = true;
      reps = 1;
    }
    if (arg == "--trace") trace = true;
    if (arg == "--fault-off-check") fault_check = true;
    if (arg == "--hist-off-check") hist_check = true;
    if (arg == "--simd-off-check") simd_check = true;
  }
  if (fault_check) {
    return fault_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (simd_check) {
    return simd_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (hist_check) {
    return hist_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (trace) {
    // Unified trace-output contract: --trace-out= / OBLIV_TRACE_OUT pick
    // the export path; the historical wallclock_trace.json is the default.
    return trace_overhead(
        smoke, smoke ? 1 : std::max(reps, 5),
        obs::resolve_trace_out(argc, argv, "wallclock_trace.json"));
  }
  // Host-aware thread sweep: the canonical {1,2,4,8} rows (comparable
  // across hosts and PRs) plus the host's own core count when it is not
  // already in the list, so a speedup-vs-threads curve always has a point
  // at full hardware concurrency.  On a 1-core host the extra point is
  // already present and the multi-thread rows keep their historical
  // meaning: scheduler overhead under oversubscription.
  std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  const unsigned hc = bench::host_concurrency();
  if (!smoke && hc <= 64 &&
      std::find(thread_counts.begin(), thread_counts.end(), hc) ==
          thread_counts.end()) {
    thread_counts.insert(
        std::upper_bound(thread_counts.begin(), thread_counts.end(), hc), hc);
  }

  bench::print_header("Native wall clock: work-stealing scheduler");
  std::printf(
      "hardware_concurrency = %u, pinned = %s  (with fewer cores than "
      "threads, multi-thread rows\n measure scheduling overhead)\n",
      hc, bench::threads_pinned() ? "yes" : "no");

  bench::JsonRecorder json("BENCH_wallclock.json");
  for (const auto& w : workloads(smoke)) {
    // One cell per thread count; executors and buffers stay alive for the
    // whole workload so repetitions can interleave across cells.
    struct Cell {
      unsigned threads;
      std::unique_ptr<Exec> ex;
      double best_ns = 0.0;
    };
    std::vector<Cell> cells;
    for (unsigned threads : thread_counts) {
      Cell c{threads, std::make_unique<Exec>(threads)};
      w.time_on(*c.ex);  // warm-up
      cells.push_back(std::move(c));
    }
    for (int r = 0; r < reps; ++r) {
      // Alternate sweep direction so every cell sees both neighbours'
      // cache footprints -- fixed ordering would hand each cell a
      // constant (and unequal) warm-cache inheritance.
      for (std::size_t k = 0; k < cells.size(); ++k) {
        Cell& c = cells[r % 2 == 0 ? k : cells.size() - 1 - k];
        const double ns = w.time_on(*c.ex);
        if (r == 0 || ns < c.best_ns) c.best_ns = ns;
      }
    }
    util::Table t({"threads", "ns/op", "T1/Tp"});
    const double base = cells.front().best_ns;  // thread_counts[0] == 1
    for (const auto& c : cells) {
      json.add(w.name, "steal", c.threads, w.n(), c.best_ns, reps);
      t.add_row({util::Table::fmt(std::uint64_t(c.threads)),
                 util::Table::fmt(c.best_ns, "%.0f"),
                 util::Table::fmt(base / c.best_ns, "%.3f")});
    }
    std::cout << "\n-- " << w.name << " (n=" << w.n() << ") --\n";
    t.print(std::cout);
  }
  simd_kernel_section(smoke, smoke ? 2 : std::max(reps, 7), json);
  if (!smoke) json.write();  // smoke numbers would pollute the trajectory
  return 0;
}
