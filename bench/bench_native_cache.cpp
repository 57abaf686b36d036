// Experiment: the HM model vs real hardware.
//
// The simulator benches validate the theorems against the *model*; this
// binary runs the same cache-oblivious-vs-naive comparisons on the actual
// host with hardware performance counters.  The paper's premise is that
// oblivious algorithms perform well on any cache hierarchy -- here the
// hierarchy is whatever CPU this runs on.
//
// Requires perf_event access; prints the counter error and the wall-clock
// comparison only when counters are locked down (common in containers).
#include <chrono>
#include <iostream>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/transpose.hpp"
#include "bench/common.hpp"
#include "bench/simd_kernel_benches.hpp"
#include "sched/native_executor.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

using namespace obliv;

namespace {

struct Measurement {
  double ms = 0;
  std::optional<std::uint64_t> llc_misses, l1d_misses;
};

template <class F>
Measurement measure(F&& f) {
  util::PerfCounterGroup group(
      {util::PerfEvent::kCacheMisses, util::PerfEvent::kL1DReadMisses});
  Measurement m;
  group.start();
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  group.stop();
  m.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.llc_misses = group.value(0);
  m.l1d_misses = group.value(1);
  return m;
}

std::string fmt_opt(const std::optional<std::uint64_t>& v) {
  return v ? util::Table::fmt(*v) : std::string("n/a");
}

/// Counter readings for one kernel run: retired instructions, cycles, LLC
/// misses (any may be nullopt when perf_event is locked down).
struct KernelCounters {
  double ms = 0;
  std::optional<std::uint64_t> instructions, cycles, llc_misses;
};

template <class F>
KernelCounters measure_kernel(F&& f) {
  util::PerfCounterGroup group({util::PerfEvent::kInstructions,
                                util::PerfEvent::kCycles,
                                util::PerfEvent::kCacheMisses});
  KernelCounters c;
  group.start();
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  group.stop();
  c.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  c.instructions = group.value(0);
  c.cycles = group.value(1);
  c.llc_misses = group.value(2);
  return c;
}

/// SIMD kernel validation: every vectorized family from the shared bench
/// list, measured under Mode::kScalar and Mode::kAuto with hardware
/// counters.  The vector win should show up as *fewer retired
/// instructions* at similar IPC -- lanes retire 4 elements per
/// instruction -- while LLC misses stay flat (same working set, same
/// access order).  A "speedup" that instead came from fewer misses would
/// mean the kernel changed the access pattern, which the SIMD layer
/// promises not to do.
void simd_counter_validation(bool smoke) {
  std::cout << "\n==== SIMD kernel validation (scalar vs auto) ====\n";
  std::cout << "isa = " << simd::active_isa()
            << ", lanes = " << simd::lane_width() << ", compiled "
            << (simd::kSimdBuilt ? "in" : "out") << "\n";
  {
    util::PerfCounterGroup probe({util::PerfEvent::kCycles});
    if (!probe.available()) {
      std::cout << "(hardware counters unavailable: " << probe.error()
                << "; reporting wall-clock only)\n";
    }
  }
  util::Table t({"kernel", "sc instr", "au instr", "instr ratio", "sc IPC",
                 "au IPC", "LLC delta"});
  for (auto& kb : bench::kernel_benches(smoke)) {
    kb.run();  // warm: touch all pages before either measured pass
    KernelCounters sc, au;
    {
      simd::ScopedMode m(simd::Mode::kScalar);
      sc = measure_kernel(kb.run);
    }
    {
      simd::ScopedMode m(simd::Mode::kAuto);
      au = measure_kernel(kb.run);
    }
    std::string ratio = "n/a", sc_ipc = "n/a", au_ipc = "n/a", dmiss = "n/a";
    if (sc.instructions && au.instructions && *au.instructions > 0) {
      ratio = util::Table::fmt(
          static_cast<double>(*sc.instructions) /
              static_cast<double>(*au.instructions),
          "%.2fx");
    }
    if (sc.instructions && sc.cycles && *sc.cycles > 0) {
      sc_ipc = util::Table::fmt(static_cast<double>(*sc.instructions) /
                                    static_cast<double>(*sc.cycles),
                                "%.2f");
    }
    if (au.instructions && au.cycles && *au.cycles > 0) {
      au_ipc = util::Table::fmt(static_cast<double>(*au.instructions) /
                                    static_cast<double>(*au.cycles),
                                "%.2f");
    }
    if (sc.llc_misses && au.llc_misses) {
      const auto d = static_cast<std::int64_t>(*au.llc_misses) -
                     static_cast<std::int64_t>(*sc.llc_misses);
      dmiss = (d >= 0 ? "+" : "") + util::Table::fmt(d);
    }
    t.add_row({kb.name, fmt_opt(sc.instructions), fmt_opt(au.instructions),
               ratio, sc_ipc, au_ipc, dmiss});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  std::cout << "==== Native hardware-counter comparison ====\n";
  std::cout << "hardware_concurrency = " << bench::host_concurrency()
            << ", pinned = " << (bench::threads_pinned() ? "yes" : "no")
            << "\n";
  {
    util::PerfCounterGroup probe({util::PerfEvent::kInstructions});
    if (!probe.available()) {
      std::cout << "(hardware counters unavailable: " << probe.error()
                << "; falling back to wall-clock only)\n";
    }
  }
  sched::NativeExecutor ex(1);  // single thread isolates memory behaviour
  bench::trace_attach(ex);      // one worker, so the default 1-ring export
                                // stays single-producer
  util::Xoshiro256 rng(1);

  util::Table t({"workload", "ms", "LLC misses", "L1D read misses"});
  // Transposition: MO-MT vs naive strided.
  {
    const std::uint64_t n = smoke ? 256 : 2048;
    auto a = ex.make_buf<double>(n * n);
    auto out = ex.make_buf<double>(n * n);
    for (auto& v : a.raw()) v = rng.uniform();
    auto warm = measure([&] { algo::mo_transpose(ex, a.ref(), out.ref(), n); });
    (void)warm;
    auto mo = measure([&] { algo::mo_transpose(ex, a.ref(), out.ref(), n); });
    auto naive =
        measure([&] { algo::naive_transpose(ex, a.ref(), out.ref(), n); });
    t.add_row({"MO-MT n=2048", util::Table::fmt(mo.ms, "%.1f"),
               fmt_opt(mo.llc_misses), fmt_opt(mo.l1d_misses)});
    t.add_row({"naive transpose n=2048", util::Table::fmt(naive.ms, "%.1f"),
               fmt_opt(naive.llc_misses), fmt_opt(naive.l1d_misses)});
  }
  // GEP: I-GEP vs the k-major loop.
  {
    const std::uint64_t n = smoke ? 128 : 512;
    auto buf = ex.make_buf<double>(n * n);
    using Mat = sched::MatView<sched::NatRef<double>>;
    for (auto& v : buf.raw()) v = rng.uniform();
    auto igep = measure([&] {
      algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n),
                                              32);
    });
    for (auto& v : buf.raw()) v = rng.uniform();
    auto loop = measure([&] {
      algo::gep_loop<algo::FloydWarshallInstance>(ex,
                                                  Mat::full(buf.ref(), n, n));
    });
    t.add_row({"I-GEP FW n=512", util::Table::fmt(igep.ms, "%.1f"),
               fmt_opt(igep.llc_misses), fmt_opt(igep.l1d_misses)});
    t.add_row({"GEP loop FW n=512", util::Table::fmt(loop.ms, "%.1f"),
               fmt_opt(loop.llc_misses), fmt_opt(loop.l1d_misses)});
  }
  t.print(std::cout);
  simd_counter_validation(smoke);
  return 0;
}
