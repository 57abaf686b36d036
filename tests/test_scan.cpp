#include "algo/scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, InclusivePrefixSumMatchesStdOnSim) {
  const std::size_t n = GetParam();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<std::int64_t>(n);
  util::Xoshiro256 rng(n);
  std::vector<std::int64_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.raw()[i] = static_cast<std::int64_t>(rng.below(1000)) - 500;
    expect[i] = buf.raw()[i];
  }
  std::partial_sum(expect.begin(), expect.end(), expect.begin());
  ex.run(2 * n, [&] { mo_prefix_sum(ex, buf.ref()); });
  EXPECT_EQ(buf.raw(), expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScanSizes,
                         ::testing::Values(1, 2, 3, 7, 8, 64, 100, 1000, 4096,
                                           12345));

// The scratch contract of mo_scan_inclusive: scan_scratch_words(n) -- the
// sum of the contraction halves, less than n -- is enough, and not one word
// more is touched; a shorter scratch is a typed error, raised before any
// access.
class ScanScratch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanScratch, ExactMinimumScratchSufficesAndShorterIsRejected) {
  const std::uint64_t n = GetParam();
  const std::uint64_t need = scan_scratch_words(n);
  EXPECT_LT(need, n);
  sched::NativeExecutor ex(4, /*sequential_grain_words=*/16);
  std::vector<std::uint64_t> v(n), expect(n);
  util::Xoshiro256 rng(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = expect[i] = rng.below(1000);
  std::partial_sum(expect.begin(), expect.end(), expect.begin());

  // Guard words past the exact minimum catch any overrun of the view.
  constexpr std::uint64_t kGuard = 0xdeadbeefcafef00dull;
  std::vector<std::uint64_t> scratch(need + 8, kGuard);
  using Ref = sched::NatRef<std::uint64_t>;
  mo_scan_inclusive(ex, Ref(v.data(), n), Ref(scratch.data(), need),
                    AddOp<std::uint64_t>{});
  EXPECT_EQ(v, expect);
  for (std::uint64_t i = need; i < scratch.size(); ++i) {
    EXPECT_EQ(scratch[i], kGuard) << "scratch overrun at word " << i;
  }

  std::vector<std::uint64_t> input = v;
  try {
    mo_scan_inclusive(ex, Ref(v.data(), n), Ref(scratch.data(), need - 1),
                      AddOp<std::uint64_t>{});
    ADD_FAILURE() << "a scratch one word short was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(v, input);  // rejected before any access
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanScratch,
                         ::testing::Values(3, 5, 16, 17, 1024, 1025, 1 << 16,
                                           (1 << 16) + 1));

TEST(Scan, MaxOperatorWorks) {
  const std::size_t n = 513;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<std::int64_t>(n);
  util::Xoshiro256 rng(7);
  std::vector<std::int64_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.raw()[i] = static_cast<std::int64_t>(rng.below(1u << 20));
    expect[i] = std::max(buf.raw()[i], i ? expect[i - 1] : buf.raw()[0]);
  }
  ex.run(2 * n, [&] {
    mo_scan(ex, buf.ref(),
            [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  });
  EXPECT_EQ(buf.raw(), expect);
}

TEST(Scan, ReduceMatchesAccumulate) {
  const std::size_t n = 10000;
  SimExecutor ex(hm::MachineConfig::shared_l2(8));
  auto buf = ex.make_buf<std::int64_t>(n);
  std::iota(buf.raw().begin(), buf.raw().end(), 1);
  std::int64_t total = 0;
  ex.run(2 * n, [&] {
    total = mo_reduce(ex, buf.ref(),
                      [](std::int64_t a, std::int64_t b) { return a + b; });
  });
  EXPECT_EQ(total, static_cast<std::int64_t>(n) * (n + 1) / 2);
}

TEST(Scan, NativeExecutorMatches) {
  const std::size_t n = 100000;
  sched::NativeExecutor ex(4);
  auto buf = ex.make_buf<std::int64_t>(n);
  std::vector<std::int64_t> expect(n);
  util::Xoshiro256 rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    buf.raw()[i] = static_cast<std::int64_t>(rng.below(100));
    expect[i] = buf.raw()[i];
  }
  std::partial_sum(expect.begin(), expect.end(), expect.begin());
  mo_prefix_sum(ex, buf.ref());
  EXPECT_EQ(buf.raw(), expect);
}

TEST(Scan, CacheMissesAreLinearInN) {
  // Table II row "Prefix sum": Theta(n / (q_i B_i)) misses per level.
  // Doubling n should roughly double the misses (ratio in [1.6, 2.6]).
  auto misses_for = [](std::size_t n) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto buf = ex.make_buf<std::int64_t>(n);
    for (std::size_t i = 0; i < n; ++i) buf.raw()[i] = 1;
    auto m = ex.run(2 * n, [&] { mo_prefix_sum(ex, buf.ref()); });
    return m.level_total_misses[1];
  };
  const auto a = misses_for(1 << 15);
  const auto b = misses_for(1 << 16);
  const double ratio = double(b) / double(a);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.6);
}

TEST(Scan, SpanIsLogarithmicTimesB1) {
  // Paper: O(B_1 log n) critical pathlength for CGC scans (plus n/p work
  // term).  Quadrupling n from a large base should grow span by roughly the
  // work term only; check span stays far below n.
  SimExecutor ex(hm::MachineConfig::shared_l2(8));
  const std::size_t n = 1 << 16;
  auto buf = ex.make_buf<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) buf.raw()[i] = 1;
  auto m = ex.run(2 * n, [&] { mo_prefix_sum(ex, buf.ref()); });
  EXPECT_LT(m.span, m.work / 4);  // real parallelism present
}

}  // namespace
}  // namespace obliv::algo
