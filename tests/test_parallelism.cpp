// Parallel constructs really run in parallel: every algorithm family, on a
// 4-worker work-stealing pool, must get at least one of its tasks stolen.
//
// Checked by counters, not by timing: an obs::Tracer with events disabled
// still records the `sched.steal.scan_ns` histogram, one sample per
// successful steal.  A family whose fork structure never exposes work
// (e.g. a binary CGC=>SB recursion whose two-subtask loops never split)
// runs entirely on the calling thread and records zero steals, however
// fast it is.  Thieves start parked, so a run may finish before any of
// them wakes; a bounded number of repetitions absorbs that.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "workload/workloads.hpp"

namespace obliv {
namespace {

using sched::NativeExecutor;
using workload::Kind;

/// Per-kind size: large enough that the root forks on a 1 << 12 grain.
std::uint64_t size_of(Kind k) {
  constexpr std::uint64_t kSizes[] = {
      1 << 18,  // scan
      1 << 15,  // sort
      1 << 14,  // fft
      256,      // transpose side
      128,      // gep side
      1 << 15,  // listrank
      128,      // spmdv grid side
      128,      // matmul side
  };
  return kSizes[static_cast<std::size_t>(k)];
}

class FamilyParallelism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FamilyParallelism, TasksAreStolenOnFourWorkers) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs a multi-core host";
  }
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "steal histogram compiled out (OBLIV_TRACING=OFF)";
  }
  const Kind kind = static_cast<Kind>(GetParam());
  NativeExecutor ex(4, 1 << 12, sched::SchedMode::kWorkSteal);
  obs::Tracer tracer(4);
  tracer.set_events_enabled(false);
  ex.set_tracer(&tracer);
  const obs::Histogram& steals =
      tracer.counters().histogram("sched.steal.scan_ns");
  workload::Instance<NativeExecutor> inst(ex, kind, size_of(kind), GetParam());
  constexpr int kMaxRuns = 50;
  int runs = 0;
  while (steals.count() == 0 && runs < kMaxRuns) {
    inst.reset();
    inst.run(ex);
    ++runs;
  }
  ex.set_tracer(nullptr);
  EXPECT_GE(steals.count(), 1u)
      << workload::name(kind) << " ran " << runs
      << " times on 4 workers without a single steal: its parallel "
         "constructs never exposed work";
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyParallelism,
    ::testing::Range<std::size_t>(0, workload::kKinds),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      return std::string(workload::name(static_cast<Kind>(param_info.param)));
    });

}  // namespace
}  // namespace obliv
