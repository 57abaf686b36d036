#include "algo/transpose.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"
#include "workload/bounds.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

class TransposeSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransposeSizes, MoMtIsCorrectOnSim) {
  const std::uint64_t n = GetParam();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto a = ex.make_buf<double>(n * n);
  auto out = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(n);
  for (auto& v : a.raw()) v = rng.uniform();
  ex.run(3 * n * n, [&] { mo_transpose(ex, a.ref(), out.ref(), n); });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(out.raw()[i * n + j], a.raw()[j * n + i])
          << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Sweep, TransposeSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(Transpose, InPlaceMatchesOutOfPlace) {
  const std::uint64_t n = 64;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto a = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(5);
  std::vector<double> orig(n * n);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    a.raw()[i] = rng.uniform();
    orig[i] = a.raw()[i];
  }
  ex.run(3 * n * n, [&] {
    mo_transpose_inplace(ex, sched::MatView<decltype(a.ref())>::full(
                                 a.ref(), n, n));
  });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(a.raw()[i * n + j], orig[j * n + i]);
    }
  }
}

TEST(Transpose, NaiveAndRecursiveBaselinesAreCorrect) {
  const std::uint64_t n = 32;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto a = ex.make_buf<double>(n * n);
  auto o1 = ex.make_buf<double>(n * n);
  auto o2 = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(11);
  for (auto& v : a.raw()) v = rng.uniform();
  ex.run(3 * n * n, [&] { naive_transpose(ex, a.ref(), o1.ref(), n); });
  ex.run(3 * n * n, [&] { recursive_transpose(ex, a.ref(), o2.ref(), n); });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(o1.raw()[i * n + j], a.raw()[j * n + i]);
      ASSERT_EQ(o2.raw()[i * n + j], a.raw()[j * n + i]);
    }
  }
}

TEST(Transpose, NativeExecutorCorrect) {
  const std::uint64_t n = 256;
  sched::NativeExecutor ex(4);
  auto a = ex.make_buf<double>(n * n);
  auto out = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(3);
  for (auto& v : a.raw()) v = rng.uniform();
  mo_transpose(ex, a.ref(), out.ref(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(out.raw()[i * n + j], a.raw()[j * n + i]);
    }
  }
}

TEST(Transpose, ConstantCriticalPathVsRecursive) {
  // Theorem 1's selling point: MO-MT has O(B_1) critical pathlength per
  // step while the recursive algorithm has Theta(log n) fork depth.  With
  // fixed machine and growing n, MO-MT's span grows only with the n^2/p
  // work term; verify MO-MT's span <= recursive's at equal sizes.
  const std::uint64_t n = 128;
  SimExecutor ex(hm::MachineConfig::shared_l2(8));
  auto a = ex.make_buf<double>(n * n);
  auto out = ex.make_buf<double>(n * n);
  for (auto& v : a.raw()) v = 1.0;
  auto m_mo = ex.run(3 * n * n, [&] { mo_transpose(ex, a.ref(), out.ref(), n); });
  auto m_rec =
      ex.run(3 * n * n, [&] { recursive_transpose(ex, a.ref(), out.ref(), n); });
  EXPECT_LE(m_mo.span, m_rec.span * 2);  // MO-MT at least as shallow
}

TEST(Transpose, CacheMissesScaleWithN2OverB) {
  // Theorem 1: O(n^2/(q_i B_i) + B_i) misses per level-i cache.  Check the
  // measured L1 misses stay within a small constant of n^2 / (q_1 B_1).
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  for (std::uint64_t n : {64u, 128u, 256u}) {
    SimExecutor ex(cfg);
    auto a = ex.make_buf<double>(n * n);
    auto out = ex.make_buf<double>(n * n);
    for (auto& v : a.raw()) v = 1.0;
    auto m = ex.run(3 * n * n,
                    [&] { mo_transpose(ex, a.ref(), out.ref(), n); });
    const double model = workload::bound::transpose_misses(cfg, 1, double(n));
    EXPECT_LT(double(m.level_max_misses[0]), 16.0 * model) << "n=" << n;
  }
}

}  // namespace
}  // namespace obliv::algo
