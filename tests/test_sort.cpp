#include "algo/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed,
                                       std::uint64_t range = ~0ull) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = range == ~0ull ? rng() : rng.below(range);
  return v;
}

class SortSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortSizes, SpmsSortsRandomKeysOnSim) {
  const std::size_t n = GetParam();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<std::uint64_t>(n);
  auto expect = random_keys(n, n);
  buf.raw() = expect;
  std::sort(expect.begin(), expect.end());
  ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); });
  EXPECT_EQ(buf.raw(), expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortSizes,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 100, 128, 1000,
                                           4096, 10000, 65536));

struct AdversarialCase {
  const char* name;
  std::vector<std::uint64_t> (*make)(std::size_t);
};

// Print the case by name; gtest's default dumps the raw pointer bytes, which
// change with address-space randomisation and make the listed test names
// differ from build to build.
void PrintTo(const AdversarialCase& c, std::ostream* os) { *os << c.name; }

std::vector<std::uint64_t> all_equal(std::size_t n) {
  return std::vector<std::uint64_t>(n, 42);
}
std::vector<std::uint64_t> already_sorted(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}
std::vector<std::uint64_t> reverse_sorted(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = n - i;
  return v;
}
std::vector<std::uint64_t> two_values(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % 2;
  return v;
}
std::vector<std::uint64_t> sawtooth(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % 17;
  return v;
}
std::vector<std::uint64_t> organ_pipe(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::min(i, n - 1 - i);
  return v;
}

class SortAdversarial : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(SortAdversarial, SortsCorrectly) {
  for (std::size_t n : {65u, 1000u, 5000u}) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto buf = ex.make_buf<std::uint64_t>(n);
    auto expect = GetParam().make(n);
    buf.raw() = expect;
    std::sort(expect.begin(), expect.end());
    ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); });
    ASSERT_EQ(buf.raw(), expect) << GetParam().name << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SortAdversarial,
    ::testing::Values(AdversarialCase{"all_equal", all_equal},
                      AdversarialCase{"sorted", already_sorted},
                      AdversarialCase{"reverse", reverse_sorted},
                      AdversarialCase{"two_values", two_values},
                      AdversarialCase{"sawtooth", sawtooth},
                      AdversarialCase{"organ_pipe", organ_pipe}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Sort, HeavyDuplicatesSmallRange) {
  const std::size_t n = 20000;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<std::uint64_t>(n);
  auto expect = random_keys(n, 77, 5);  // only 5 distinct keys
  buf.raw() = expect;
  std::sort(expect.begin(), expect.end());
  ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); });
  EXPECT_EQ(buf.raw(), expect);
}

TEST(Sort, MergesortBaselineCorrect) {
  const std::size_t n = 12345;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<std::uint64_t>(n);
  auto expect = random_keys(n, 3);
  buf.raw() = expect;
  std::sort(expect.begin(), expect.end());
  ex.run(4 * n, [&] { mergesort_baseline(ex, buf.ref()); });
  EXPECT_EQ(buf.raw(), expect);
}

TEST(Sort, NativeExecutorSortsLargeInput) {
  const std::size_t n = 1 << 18;
  sched::NativeExecutor ex(4);
  auto buf = ex.make_buf<std::uint64_t>(n);
  auto expect = random_keys(n, 9);
  buf.raw() = expect;
  std::sort(expect.begin(), expect.end());
  spms_sort(ex, buf.ref());
  EXPECT_EQ(buf.raw(), expect);
}

TEST(Sort, WorkIsNLogNShaped) {
  // Work should grow as ~n log n: work(4n)/work(n) ~ 4 * log(4n)/log(n),
  // comfortably below 6 for these sizes.
  auto work_for = [](std::size_t n) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto buf = ex.make_buf<std::uint64_t>(n);
    buf.raw() = random_keys(n, n);
    return ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); }).work;
  };
  const double r = double(work_for(1 << 16)) / double(work_for(1 << 14));
  EXPECT_GT(r, 3.0);
  EXPECT_LT(r, 7.0);
}

TEST(Sort, SpmsMissesBeatMergesortAtLargeN) {
  // Theorem 3: SPMS gets log_{C_i} n passes over the data vs mergesort's
  // log_2 (n / C_i); at n >> C_1 SPMS must incur fewer L1 misses.
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const std::size_t n = 1 << 16;  // C_1 = 2048 words
  std::uint64_t m_spms, m_merge;
  {
    SimExecutor ex(cfg);
    auto buf = ex.make_buf<std::uint64_t>(n);
    buf.raw() = random_keys(n, 1);
    m_spms = ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); })
                 .level_max_misses[0];
  }
  {
    SimExecutor ex(cfg);
    auto buf = ex.make_buf<std::uint64_t>(n);
    buf.raw() = random_keys(n, 1);
    m_merge = ex.run(4 * n, [&] { mergesort_baseline(ex, buf.ref()); })
                  .level_max_misses[0];
  }
  EXPECT_LT(m_spms, m_merge);
}

TEST(Sort, StressRandomSmallSizes) {
  util::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(600);
    SimExecutor ex(hm::MachineConfig::shared_l2(2));
    auto buf = ex.make_buf<std::uint64_t>(n);
    auto expect = random_keys(n, trial * 1000 + n, 1 + rng.below(1000));
    buf.raw() = expect;
    std::sort(expect.begin(), expect.end());
    ex.run(4 * n, [&] { spms_sort(ex, buf.ref()); });
    ASSERT_EQ(buf.raw(), expect) << "trial=" << trial << " n=" << n;
  }
}

}  // namespace
}  // namespace obliv::algo
