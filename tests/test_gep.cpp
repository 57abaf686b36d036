#include "algo/gep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/status.hpp"
#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

using sched::MatView;
using sched::SimExecutor;

template <class Inst>
void check_igep_matches_reference(std::uint64_t n, std::uint64_t seed,
                                  double tol,
                                  bool diag_dominant = false) {
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(seed);
  std::vector<double> expect(n * n);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    buf.raw()[i] = rng.uniform() + 0.1;
    if (diag_dominant && i / n == i % n) buf.raw()[i] += double(n);
    expect[i] = buf.raw()[i];
  }
  gep_reference<Inst>(expect, n);
  auto x = MatView<decltype(buf.ref())>::full(buf.ref(), n, n);
  ex.run(n * n, [&] { igep<Inst>(ex, x); });
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(buf.raw()[i], expect[i], tol)
        << "n=" << n << " idx=" << i;
  }
}

class GepSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GepSizes, FloydWarshallMatchesReference) {
  // I-GEP may relax a path through fully-updated operands, summing the same
  // path weights in a different association order: allow a few ulps.
  check_igep_matches_reference<FloydWarshallInstance>(GetParam(), 1, 1e-12);
}

TEST_P(GepSizes, GaussianEliminationMatchesReference) {
  // Diagonally dominant matrices avoid pivoting issues (the paper's GEP
  // Gaussian elimination explicitly excludes pivoting).
  check_igep_matches_reference<GaussianInstance>(GetParam(), 2, 1e-9, true);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sweep, GepSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(Gep, FloydWarshallComputesShortestPaths) {
  // 8-node cycle: dist(i, j) = min(|i-j|, 8-|i-j|) after FW.
  const std::uint64_t n = 8;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<double>(n * n);
  const double inf = 1e18;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      double d = inf;
      if (i == j) d = 0;
      if ((i + 1) % n == j || (j + 1) % n == i) d = 1;
      buf.raw()[i * n + j] = d;
    }
  }
  auto x = MatView<decltype(buf.ref())>::full(buf.ref(), n, n);
  ex.run(n * n, [&] { igep<FloydWarshallInstance>(ex, x); });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::uint64_t d = i > j ? i - j : j - i;
      EXPECT_EQ(buf.raw()[i * n + j], double(std::min(d, n - d)));
    }
  }
}

TEST(Gep, GaussianProducesUpperTriangularU) {
  const std::uint64_t n = 16;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(5);
  // A = L*U product reconstruction check via reference is done above; here
  // verify U's defining property: the elimination below the diagonal
  // yields (numerically) the Schur complements, i.e. matches reference.
  std::vector<double> expect(n * n);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    buf.raw()[i] = rng.uniform();
    if (i / n == i % n) buf.raw()[i] += double(n);
    expect[i] = buf.raw()[i];
  }
  gep_reference<GaussianInstance>(expect, n);
  auto x = MatView<decltype(buf.ref())>::full(buf.ref(), n, n);
  ex.run(n * n, [&] { igep<GaussianInstance>(ex, x); });
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(buf.raw()[i], expect[i], 1e-9);
  }
}

TEST(Gep, MatMulEmbeddingComputesProduct) {
  const std::uint64_t n = 16, nn = 2 * n;
  MatMulEmbedInstance::half = n;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<double>(nn * nn);
  util::Xoshiro256 rng(9);
  std::vector<double> a(n * n), b(n * n);
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  // Layout [[ *, B ], [ A, C ]] with C initialized to zero.
  for (std::uint64_t i = 0; i < nn * nn; ++i) buf.raw()[i] = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      buf.raw()[i * nn + (n + j)] = b[i * n + j];        // B block
      buf.raw()[(n + i) * nn + j] = a[i * n + j];        // A block
    }
  }
  auto x = MatView<decltype(buf.ref())>::full(buf.ref(), nn, nn);
  ex.run(nn * nn, [&] { igep<MatMulEmbedInstance>(ex, x); });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      double expect = 0;
      for (std::uint64_t k = 0; k < n; ++k) expect += a[i * n + k] * b[k * n + j];
      ASSERT_NEAR(buf.raw()[(n + i) * nn + (n + j)], expect, 1e-9);
    }
  }
}

TEST(Gep, MoMatmulComputesProduct) {
  const std::uint64_t n = 32;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto cb = ex.make_buf<double>(n * n);
  auto ab = ex.make_buf<double>(n * n);
  auto bb = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(13);
  for (auto& v : ab.raw()) v = rng.uniform();
  for (auto& v : bb.raw()) v = rng.uniform();
  using Ref = decltype(cb.ref());
  ex.run(4 * n * n, [&] {
    mo_matmul(ex, MatView<Ref>::full(cb.ref(), n, n),
              MatView<Ref>::full(ab.ref(), n, n),
              MatView<Ref>::full(bb.ref(), n, n));
  });
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      double expect = 0;
      for (std::uint64_t k = 0; k < n; ++k) {
        expect += ab.raw()[i * n + k] * bb.raw()[k * n + j];
      }
      ASSERT_NEAR(cb.raw()[i * n + j], expect, 1e-9);
    }
  }
}

TEST(Gep, GepLoopBaselineMatchesIgep) {
  const std::uint64_t n = 32;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto b1 = ex.make_buf<double>(n * n);
  auto b2 = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(21);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    b1.raw()[i] = rng.uniform();
    b2.raw()[i] = b1.raw()[i];
  }
  using Ref = decltype(b1.ref());
  ex.run(n * n, [&] {
    igep<FloydWarshallInstance>(ex, MatView<Ref>::full(b1.ref(), n, n));
  });
  ex.run(n * n, [&] {
    gep_loop<FloydWarshallInstance>(ex, MatView<Ref>::full(b2.ref(), n, n));
  });
  EXPECT_EQ(b1.raw(), b2.raw());
}

TEST(Gep, BaseCutoffDoesNotChangeResult) {
  const std::uint64_t n = 32;
  std::vector<double> results[3];
  int idx = 0;
  for (std::uint64_t cutoff : {1u, 4u, 16u}) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto buf = ex.make_buf<double>(n * n);
    util::Xoshiro256 rng(33);
    for (auto& v : buf.raw()) v = rng.uniform();
    using Ref = decltype(buf.ref());
    ex.run(n * n, [&] {
      igep<FloydWarshallInstance>(ex, MatView<Ref>::full(buf.ref(), n, n),
                                  cutoff);
    });
    results[idx++] = buf.raw();
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(Gep, NativeExecutorMatchesReference) {
  const std::uint64_t n = 64;
  sched::NativeExecutor ex(4);
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(55);
  std::vector<double> expect(n * n);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    buf.raw()[i] = rng.uniform();
    expect[i] = buf.raw()[i];
  }
  gep_reference<FloydWarshallInstance>(expect, n);
  using Ref = decltype(buf.ref());
  igep<FloydWarshallInstance>(ex, MatView<Ref>::full(buf.ref(), n, n));
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(buf.raw()[i], expect[i], 1e-12);
  }
}

TEST(Gep, SbMissesBeatLoopMisses) {
  // Theorem 5 vs the classic loop: I-GEP under SB gets the sqrt(C) divisor;
  // the k-major loop does not.  At n^2 >> C_1 the gap must be visible.
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const std::uint64_t n = 128;  // n^2 = 16K >> C_1 = 2K words
  std::uint64_t misses_igep, misses_loop;
  {
    SimExecutor ex(cfg);
    auto buf = ex.make_buf<double>(n * n);
    for (auto& v : buf.raw()) v = 1.0;
    using Ref = decltype(buf.ref());
    auto m = ex.run(n * n, [&] {
      igep<FloydWarshallInstance>(ex, MatView<Ref>::full(buf.ref(), n, n));
    });
    misses_igep = m.level_max_misses[0];
  }
  {
    SimExecutor ex(cfg);
    auto buf = ex.make_buf<double>(n * n);
    for (auto& v : buf.raw()) v = 1.0;
    using Ref = decltype(buf.ref());
    auto m = ex.run(n * n, [&] {
      gep_loop<FloydWarshallInstance>(ex, MatView<Ref>::full(buf.ref(), n, n));
    });
    misses_loop = m.level_max_misses[0];
  }
  EXPECT_LT(misses_igep * 2, misses_loop);
}

// igep and mo_matmul reject a side that does not halve evenly down to
// base_cutoff (n = 18 splits into 9s, and 9 > 8 is odd) and a non-square
// view, before writing anything -- on both executors, called directly
// rather than through the registry's size check.
template <class Exec, class Run>
void expect_rejected_sides(Exec& ex, Run&& run) {
  const std::uint64_t n = 18;
  auto a = ex.template make_buf<double>(n * n);
  auto b = ex.template make_buf<double>(n * n);
  auto c = ex.template make_buf<double>(n * n);
  for (auto& v : a.raw()) v = 1.0;
  for (auto& v : b.raw()) v = 1.0;
  using Mat = MatView<decltype(a.ref())>;
  auto expect_invalid = [&](auto&& call) {
    try {
      run(call);
      ADD_FAILURE() << "expected Error(kInvalidArgument)";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
    }
  };
  expect_invalid([&] {
    igep<FloydWarshallInstance>(ex, Mat::full(a.ref(), n, n));
  });
  expect_invalid([&] {
    igep<FloydWarshallInstance>(ex, Mat::full(a.ref(), 16, 8));
  });
  // The rule follows base_cutoff: 12 halves to 3, odd and above 2.
  expect_invalid([&] {
    igep<FloydWarshallInstance>(ex, Mat::full(a.ref(), 12, 12), 2);
  });
  expect_invalid([&] {
    mo_matmul(ex, Mat::full(c.ref(), n, n), Mat::full(a.ref(), n, n),
              Mat::full(b.ref(), n, n));
  });
  expect_invalid([&] {
    mo_matmul(ex, Mat::full(c.ref(), 16, 16), Mat::full(a.ref(), 16, 8),
              Mat::full(b.ref(), 8, 16));
  });
  for (double v : a.raw()) ASSERT_EQ(v, 1.0);
  for (double v : c.raw()) ASSERT_EQ(v, 0.0);
  // 18 halves to 9, which a cutoff of 9 accepts.
  run([&] { igep<FloydWarshallInstance>(ex, Mat::full(a.ref(), n, n), 9); });
}

TEST(Gep, RejectsSideThatDoesNotHalve) {
  {
    sched::NativeExecutor ex(2);
    expect_rejected_sides(ex, [](auto&& call) { call(); });
  }
  {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    expect_rejected_sides(ex, [&](auto&& call) { ex.run(18 * 18, call); });
  }
}

}  // namespace
}  // namespace obliv::algo
