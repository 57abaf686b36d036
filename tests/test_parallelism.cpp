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

#include <complex>
#include <string>
#include <thread>
#include <vector>

#include "algo/scan.hpp"
#include "algo/transpose.hpp"
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
  const Kind kind = static_cast<Kind>(GetParam());
  NativeExecutor ex(4, 1 << 12);
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

/// Loop halves forked while `run` executes on a 4-worker pool with grain
/// 128, one fork-grain histogram sample each.
template <class F>
std::uint64_t forks_during(F&& run) {
  NativeExecutor ex(4, /*sequential_grain_words=*/128);
  obs::Tracer tracer(4);
  tracer.set_events_enabled(false);
  ex.set_tracer(&tracer);
  run(ex);
  ex.set_tracer(nullptr);
  return tracer.counters().histogram("sched.fork.grain_iters").count();
}

// A loop whose iteration is a native leaf (a scan block, a transpose tile
// of doubles or of complex numbers) splits at any iteration: four of them
// fork.  A narrower loop keeps the lane floor: four iterations of a
// quarter leaf run as one chunk.  The root forks into its own empty deque,
// so this needs no second core.
TEST(NativeLeaf, FourLeafLoopForks) {
  std::vector<double> v(4 * sched::kNativeLeafWords, 1.0);
  const sched::NatRef<double> vref(v.data(), v.size());
  EXPECT_GT(forks_during(
                [&](NativeExecutor& ex) { algo::mo_prefix_sum(ex, vref); }),
            0u)
      << "4-block scan";
  EXPECT_EQ(v.back(), static_cast<double>(v.size()));
  constexpr std::uint64_t side = 64;  // 2 x 2 tiles of 32 x 32 doubles
  std::vector<double> a(side * side, 2.0), out(side * side);
  EXPECT_GT(forks_during([&](NativeExecutor& ex) {
              algo::mo_transpose(ex, sched::NatRef<double>(a.data(), a.size()),
                                 sched::NatRef<double>(out.data(), out.size()),
                                 side);
            }),
            0u)
      << "4-tile transpose";
  EXPECT_EQ(out, a);
  constexpr std::uint64_t cside = 32;  // 2 x 2 tiles of 16 x 16 complex
  using cplx = std::complex<double>;
  std::vector<cplx> ca(cside * cside, cplx(1.0, -2.0)), cout(ca.size());
  EXPECT_GT(forks_during([&](NativeExecutor& ex) {
              algo::mo_transpose(ex, sched::NatRef<cplx>(ca.data(), ca.size()),
                                 sched::NatRef<cplx>(cout.data(), cout.size()),
                                 cside);
            }),
            0u)
      << "4-tile complex transpose";
  EXPECT_EQ(cout, ca);
  EXPECT_EQ(forks_during([](NativeExecutor& ex) {
              ex.cgc_pfor(0, 4, sched::kNativeLeafWords / 4,
                          [](std::uint64_t, std::uint64_t) {});
            }),
            0u)
      << "4 quarter-leaf iterations";
}

}  // namespace
}  // namespace obliv
