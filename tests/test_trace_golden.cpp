// Golden-trace determinism of the obs subsystem on the simulator.
//
// The sim-mode tracing contract (DESIGN.md / obs/trace.hpp) is that a
// traced run is a pure function of (machine config, policy, workload):
// timestamps come from the simulator's work counter, task ids from a
// deterministic counter, and the exporter formats integers only.  So the
// same workload traced twice must produce byte-identical Chrome-trace
// JSON -- any divergence means wall-clock time, pointer values, or
// iteration order leaked into the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "hm/config.hpp"
#include "obs/trace.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv {
namespace {

/// One fixed traced workload on shared_l2(4): an SPMS sort (CGC + CGC=>SB
/// dispatch, cache misses) followed by a recursive transposition (plain SB
/// dispatch via sb_parallel), both recorded into the same tracer.
std::string traced_workload_json(obs::Tracer& tracer) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  sched::SimExecutor ex(cfg);
  ex.set_tracer(&tracer);
  const std::uint64_t n = 1 << 10;
  auto buf = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(42);
  for (auto& v : buf.raw()) v = rng();
  ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
  const std::uint64_t side = 64;
  auto a = ex.make_buf<double>(side * side);
  auto out = ex.make_buf<double>(side * side);
  for (auto& v : a.raw()) v = 1.0;
  ex.run(3 * side * side, [&] {
    algo::recursive_transpose(ex, a.ref(), out.ref(), side);
  });
  ex.set_tracer(nullptr);
  return obs::chrome_trace_json(tracer);
}

TEST(TraceGolden, SimTraceIsByteIdenticalAcrossRuns) {
  obs::Tracer t1, t2;
  const std::string a = traced_workload_json(t1);
  const std::string b = traced_workload_json(t2);
  EXPECT_EQ(t1.events_pushed(), t2.events_pushed());
  EXPECT_EQ(t1.events_dropped(), t2.events_dropped());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "traced runs diverged (first difference at byte "
                      << std::mismatch(a.begin(), a.end(), b.begin()).first -
                             a.begin()
                      << ")";
}

TEST(TraceGolden, ChromeTraceSchemaAndEventCoverage) {
  obs::Tracer tracer;
  const std::string json = traced_workload_json(tracer);

  // Schema sanity: array-format container, metadata thread names, instant
  // events with scope "t", and counter events -- the subset of trace_event
  // the exporter promises chrome://tracing / Perfetto can load.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  ASSERT_GE(json.size(), 4u);
  EXPECT_EQ(json.substr(json.size() - 3), "}}\n");
  EXPECT_NE(json.find("],\"otherData\":{\"dropped_events\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // No floats, no pointers: every value after a ts/args key is an integer.
  EXPECT_EQ(json.find("0x"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  // Event coverage: the sort must dispatch SB hints, anchor space-bounded
  // tasks, and miss in at least L1 -- the three signals the tentpole is
  // about.  Names match the exporter's kind.detail encoding.
  EXPECT_NE(json.find("\"hint.dispatch.SB\""), std::string::npos);
  EXPECT_NE(json.find("\"anchor."), std::string::npos);
  EXPECT_NE(json.find("\"miss.L1\""), std::string::npos);
  bool saw_anchor = false, saw_sb_hint = false, saw_miss = false;
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    tracer.ring(r).for_each([&](const obs::Event& e) {
      saw_anchor = saw_anchor || e.kind == obs::EventKind::kAnchor;
      saw_sb_hint =
          saw_sb_hint ||
          (e.kind == obs::EventKind::kHintDispatch &&
           e.detail == static_cast<std::uint8_t>(sched::Hint::kSb));
      saw_miss = saw_miss || e.kind == obs::EventKind::kMiss;
    });
  }
  EXPECT_TRUE(saw_anchor);
  EXPECT_TRUE(saw_sb_hint);
  EXPECT_TRUE(saw_miss);

  // The counter registry must have been populated by run().
  bool have_work = false;
  tracer.counters().for_each([&](std::string_view name, std::uint64_t v) {
    if (name == "run.work") have_work = v > 0;
  });
  EXPECT_TRUE(have_work);
}

TEST(TraceGolden, UntracedRunMatchesTracedRunMetrics) {
  // Attaching a tracer must not perturb the simulation: work/span/misses
  // are identical with and without it (the determinism guarantee the
  // golden test above builds on).
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const std::uint64_t n = 1 << 10;
  auto run = [&](obs::Tracer* tracer) {
    sched::SimExecutor ex(cfg);
    if (tracer != nullptr) ex.set_tracer(tracer);
    auto buf = ex.make_buf<std::uint64_t>(n);
    util::Xoshiro256 rng(42);
    for (auto& v : buf.raw()) v = rng();
    return ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
  };
  obs::Tracer tracer;
  const auto traced = run(&tracer);
  const auto untraced = run(nullptr);
  EXPECT_EQ(traced.work, untraced.work);
  EXPECT_EQ(traced.span, untraced.span);
  EXPECT_EQ(traced.pingpong, untraced.pingpong);
  EXPECT_EQ(traced.level_max_misses, untraced.level_max_misses);
}

}  // namespace
}  // namespace obliv
