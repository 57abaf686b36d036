// Statistics of the benches' paired-overhead guardrail
// (bench::paired_overhead in bench/common.hpp), driven by scripted cell
// timings instead of a clock so every figure is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/common.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"

namespace obliv::bench {
namespace {

/// A cell whose k-th call "takes" script[k % size] ns; counts its calls.
struct ScriptedCell {
  std::vector<double> script;
  int calls = 0;

  TimedRun run() {
    return [this] { return script[calls++ % script.size()]; };
  }
};

// Call order per measurement: warm-up off, warm-up on, then per rep
// off/off/on (even reps) or on/off/off (odd reps).  With an off script of
// {1000, 1020} the A/A ratios alternate 1.02, 1/1.02, 1.02, ..., so the
// median A/A noise of an odd rep count is exactly 2%.

TEST(PairedOverhead, ReportsMedianNoiseAndOverheadAndBestTimes) {
  ScriptedCell off{{1000, 1020}}, on{{1025}};
  const Overhead m =
      paired_overhead(off.run(), on.run(), 3, Budget{1.0, /*gated=*/true});
  EXPECT_NEAR(m.noise_pct, 2.0, 1e-9);
  // on/off ratios against the middle cell: 1025/1000, 1025/1020, 1025/1000.
  EXPECT_NEAR(m.over_pct, 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(m.off_ns, 1000);
  EXPECT_DOUBLE_EQ(m.on_ns, 1025);
  // 2.5% is over the 1% floor but within A/A noise + 1% = 3%.
  EXPECT_TRUE(m.ok);
  EXPECT_FALSE(m.remeasured);
  EXPECT_EQ(on.calls, 1 + 3);
}

TEST(PairedOverhead, QuietHostGatesAtTheFloor) {
  ScriptedCell off{{1000}}, on{{1025}};
  // No A/A noise: the budget is the floor itself.
  EXPECT_FALSE(paired_overhead(off.run(), on.run(), 5, Budget{1.0, true}).ok);
  EXPECT_TRUE(paired_overhead(off.run(), on.run(), 5, Budget{5.0, true}).ok);
  const Budget b{5.0, true};
  EXPECT_TRUE(b.within(Overhead{.noise_pct = 0, .over_pct = 5.0}));
  EXPECT_FALSE(b.within(Overhead{.noise_pct = 0, .over_pct = 5.01}));
  EXPECT_TRUE(b.within(Overhead{.noise_pct = 6.0, .over_pct = 7.0}));
  EXPECT_FALSE(b.within(Overhead{.noise_pct = 6.0, .over_pct = 7.01}));
}

TEST(PairedOverhead, FailureIsConfirmedByOneRemeasure) {
  const int reps = 5;
  const int calls_per_measure = 1 + reps;
  // A blip: the first measurement reads +10%, the confirming one 0%.
  ScriptedCell off{{1000}};
  std::vector<double> blip(calls_per_measure, 1100);
  blip.resize(2 * calls_per_measure, 1000);
  ScriptedCell on{blip};
  Overhead m = paired_overhead(off.run(), on.run(), reps, Budget{5.0, true});
  EXPECT_TRUE(m.ok);
  EXPECT_TRUE(m.remeasured);
  EXPECT_NEAR(m.over_pct, 0.0, 1e-9);
  EXPECT_EQ(on.calls, 2 * calls_per_measure);

  // A real regression reproduces and fails -- after exactly one re-measure.
  ScriptedCell slow{{1100}};
  m = paired_overhead(off.run(), slow.run(), reps, Budget{5.0, true});
  EXPECT_FALSE(m.ok);
  EXPECT_TRUE(m.remeasured);
  EXPECT_NEAR(m.over_pct, 10.0, 1e-9);
  EXPECT_EQ(slow.calls, 2 * calls_per_measure);
}

TEST(PairedOverhead, SmokeMeasuresButNeverGates) {
  ScriptedCell off{{1000}}, on{{2000}};
  const Overhead m =
      paired_overhead(off.run(), on.run(), 3, Budget{1.0, /*gated=*/false});
  EXPECT_NEAR(m.over_pct, 100.0, 1e-9);
  EXPECT_TRUE(m.ok);
  EXPECT_FALSE(m.remeasured);
  EXPECT_EQ(on.calls, 1 + 3);
}

TEST(Guardrail, VerdictFollowsTheGate) {
  ScriptedCell off{{1000}}, fast{{1000}}, slow{{1100}};
  Guardrail pass("pass", {"row", "off ns", "on ns"}, 3, Budget{5.0, true});
  pass.check("free", off.run(), fast.run());
  EXPECT_EQ(pass.finish("ok", "fail"), 0);

  Guardrail fail("fail", {"row", "off ns", "on ns"}, 3, Budget{5.0, true});
  fail.check("free", off.run(), fast.run());
  fail.check("regressed", off.run(), slow.run());
  EXPECT_EQ(fail.finish("ok", "fail"), 1);

  Guardrail smoke("smoke", {"row", "off ns", "on ns"}, 3, Budget{5.0, false});
  smoke.check("regressed", off.run(), slow.run());
  EXPECT_EQ(smoke.finish("ok", "fail"), 0);
}

// bench_wallclock --hist-off-check fails when its metrics-only cells record
// no histogram sample: a green gate over a hook that never fired is
// vacuous.
TEST(Guardrail, HistogramCheckFailsWhenNoSampleWasRecorded) {
  obs::Tracer idle(4);
  idle.set_events_enabled(false);
  EXPECT_EQ(histogram_samples(idle), 0u);
  ScriptedCell off{{1000}}, on{{1000}};
  Guardrail g("hist", {"row", "off ns", "on ns"}, 3, Budget{1.0, true});
  g.check("free", off.run(), on.run());
  g.require(histogram_samples(idle) > 0, "no histogram site fired");
  EXPECT_EQ(g.finish("ok", "fail"), 1);

  if (!obs::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  // The metrics-only state the check measures does record samples: a
  // split loop on a 4-worker pool forks, and each fork records its grain.
  obs::Tracer metrics(4);
  metrics.set_events_enabled(false);
  sched::NativeExecutor ex(4, /*sequential_grain_words=*/16);
  ex.set_tracer(&metrics);
  ex.cgc_pfor(0, 1 << 16, 1, [](std::uint64_t, std::uint64_t) {});
  ex.set_tracer(nullptr);
  EXPECT_GT(histogram_samples(metrics), 0u);
}

}  // namespace
}  // namespace obliv::bench
