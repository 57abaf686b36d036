#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "no/colsort.hpp"
#include "no/fft.hpp"
#include "no/ngep.hpp"
#include "no/transpose.hpp"
#include "no/wrappers.hpp"
#include "util/rng.hpp"

namespace obliv::no {
namespace {

TEST(NoTranspose, CorrectAndOneSuperstep) {
  const std::uint64_t n = 16;
  NoMachine mach(n * n, {{16, 4}});
  util::Xoshiro256 rng(1);
  std::vector<double> a(n * n), out;
  for (auto& v : a) v = rng.uniform();
  no_transpose(mach, a, out, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(out[i * n + j], a[j * n + i]);
    }
  }
  EXPECT_EQ(mach.supersteps(), 1u);
}

TEST(NoTranspose, CommunicationMatchesN2OverBp) {
  // Theta(n^2/(Bp)): each processor holds n^2/p elements; all but the
  // diagonal-block fraction must move.
  const std::uint64_t n = 32;
  const std::uint32_t p = 16;
  const std::uint64_t B = 4;
  NoMachine mach(n * n, {{p, B}});
  std::vector<double> a(n * n, 1.0), out;
  no_transpose(mach, a, out, n);
  const double model = double(n * n) / (double(B) * p);
  EXPECT_GT(double(mach.communication(0)), 0.2 * model);
  EXPECT_LT(double(mach.communication(0)), 5.0 * model);
}

TEST(NoFft, MatchesNaiveDft) {
  for (std::uint64_t n : {4u, 16u, 64u, 256u}) {
    NoMachine mach(n, {{4, 2}});
    util::Xoshiro256 rng(n);
    std::vector<algo::cplx> x(n);
    for (auto& v : x) v = algo::cplx(rng.uniform() - 0.5, rng.uniform());
    const auto expect = algo::naive_dft(x);
    no_fft(mach, x);
    double err = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(x[i] - expect[i]));
    }
    EXPECT_LT(err, 1e-9 * n) << "n=" << n;
  }
}

TEST(NoFft, ParallelismReducesComputation) {
  // Computation complexity on M(p, B) must drop roughly with p.
  const std::uint64_t n = 1 << 10;
  NoMachine mach(n, {{1, 1}, {16, 1}});
  std::vector<algo::cplx> x(n, algo::cplx(1.0, 0.0));
  no_fft(mach, x);
  const double ratio = double(mach.computation(0)) /
                       double(std::max<std::uint64_t>(1, mach.computation(1)));
  EXPECT_GT(ratio, 4.0);  // at least 4x speedup on 16 processors
}

// ---- Columnsort ----

TEST(Colsort, ShapeIsValid) {
  for (std::uint64_t n : {10u, 100u, 1000u, 50000u}) {
    const ColsortShape sh = colsort_shape(n);
    EXPECT_GE(sh.r * sh.s, n);
    if (sh.s > 1) {
      EXPECT_GE(sh.r, 2 * (sh.s - 1) * (sh.s - 1));
    }
  }
}

class ColsortSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColsortSizes, SortsRandomKeys) {
  const std::uint64_t n = GetParam();
  const ColsortShape sh = colsort_shape(n);
  NoMachine mach(sh.s + 1, {{std::min<std::uint32_t>(2, sh.s + 1), 4}});
  util::Xoshiro256 rng(n);
  std::vector<std::int64_t> data(n);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.below(1u << 30));
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  no_columnsort(mach, data, std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(data, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColsortSizes,
                         ::testing::Values(1, 2, 10, 100, 1000, 4096, 20000));

TEST(Colsort, DuplicateKeys) {
  const std::uint64_t n = 5000;
  const ColsortShape sh = colsort_shape(n);
  NoMachine mach(sh.s + 1, {{2, 4}});
  util::Xoshiro256 rng(3);
  std::vector<std::int64_t> data(n);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.below(7));
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  no_columnsort(mach, data, std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(data, expect);
}

// ---- N-GEP ----

/// Non-commutative GEP function: f(f(y,a),b) != f(f(y,b),a) (the halving
/// weights earlier updates differently), with bounded magnitude so results
/// stay finite and comparable.
struct NonCommutativeInstance {
  using value_type = double;
  static double f(double y, double u, double v, double /*w*/) {
    const double t = u * v;
    return 0.5 * y + t / (1.0 + std::abs(t));
  }
  static bool in_sigma(std::uint64_t, std::uint64_t, std::uint64_t) {
    return true;
  }
  static bool intersects(algo::Interval, algo::Interval, algo::Interval) {
    return true;
  }
};

std::vector<double> random_matrix_host(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> x(n * n);
  for (auto& v : x) v = rng.uniform() + 0.1;
  return x;
}

TEST(NGep, DStarMatchesIgepForCommutativeInstances) {
  const std::uint64_t n = 32;
  auto x = random_matrix_host(n, 5);
  auto expect = x;
  algo::gep_reference<algo::FloydWarshallInstance>(expect, n);
  NoMachine mach(16, {{16, 4}});
  n_gep<algo::FloydWarshallInstance>(mach, x, n, /*use_dstar=*/true);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(x[i], expect[i], 1e-12) << i;
  }
}

TEST(NGep, DOrderAlsoCorrect) {
  const std::uint64_t n = 16;
  auto x = random_matrix_host(n, 6);
  auto expect = x;
  algo::gep_reference<algo::FloydWarshallInstance>(expect, n);
  NoMachine mach(16, {{16, 4}});
  n_gep<algo::FloydWarshallInstance>(mach, x, n, /*use_dstar=*/false);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(x[i], expect[i], 1e-12) << i;
  }
}

TEST(NGep, GaussianMatchesReference) {
  const std::uint64_t n = 16;
  auto x = random_matrix_host(n, 7);
  for (std::uint64_t i = 0; i < n; ++i) x[i * n + i] += double(n);
  auto expect = x;
  algo::gep_reference<algo::GaussianInstance>(expect, n);
  NoMachine mach(16, {{4, 4}});
  n_gep<algo::GaussianInstance>(mach, x, n, true);
  for (std::uint64_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(x[i], expect[i], 1e-9) << i;
  }
}

TEST(NGep, DStarDivergesOnNonCommutativeInstance) {
  // The commutativity requirement is real: with a non-commutative f the
  // D* reordering produces a different (wrong) result while D agrees with
  // the reference.  (Magnitudes explode as 2^(n^3) updates double y, so we
  // compare patterns at tiny n.)
  // n and the base cutoff are chosen so the recursion reaches D-type calls
  // that themselves recurse (only there do D and D* order k-halves
  // differently per X quadrant).
  const std::uint64_t n = 16;
  auto x0 = random_matrix_host(n, 8);
  auto ref = x0;
  algo::gep_reference<NonCommutativeInstance>(ref, n);
  auto xd = x0;
  {
    NoMachine mach(4, {{4, 4}});
    n_gep<NonCommutativeInstance>(mach, xd, n, /*use_dstar=*/false, 2);
  }
  auto xs = x0;
  {
    NoMachine mach(4, {{4, 4}});
    n_gep<NonCommutativeInstance>(mach, xs, n, /*use_dstar=*/true, 2);
  }
  // D follows I-GEP's order.  I-GEP itself only guarantees GEP-equivalence
  // under the paper's conditions, but D vs D* must differ from each other
  // here, demonstrating that ordering matters without commutativity.
  bool differs = false;
  for (std::uint64_t i = 0; i < n * n; ++i) {
    if (std::abs(xd[i] - xs[i]) >
        1e-9 * std::max(std::abs(xd[i]), 1.0)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(NGep, DStarCommunicatesLessThanD) {
  // Table I's point: D duplicates U/V quadrants within rounds; D* does not.
  const std::uint64_t n = 64;
  const std::uint32_t pes = 64;
  std::uint64_t comm_d, comm_dstar;
  {
    auto x = random_matrix_host(n, 9);
    NoMachine mach(pes, {{pes, 4}});
    n_gep<algo::FloydWarshallInstance>(mach, x, n, false);
    comm_d = mach.communication(0);
  }
  {
    auto x = random_matrix_host(n, 9);
    NoMachine mach(pes, {{pes, 4}});
    n_gep<algo::FloydWarshallInstance>(mach, x, n, true);
    comm_dstar = mach.communication(0);
  }
  EXPECT_LT(comm_dstar, comm_d);
}

// ---- NO wrappers (NO-LR, NO-CC, NO prefix sums) ----

TEST(NoWrappers, PrefixSumCorrect) {
  const std::uint64_t n = 3000;
  NoMachine mach(16, {{16, 4}});
  std::vector<std::uint64_t> xs(n, 1);
  auto got = no_prefix_sum(mach, xs);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(got[i], i + 1);
  EXPECT_GT(mach.communication(0), 0u);
}

TEST(NoWrappers, ListRankCorrect) {
  const std::uint64_t n = 2000;
  util::Xoshiro256 rng(12);
  const std::vector<std::uint64_t> order = algo::random_list_order(n, rng);
  std::vector<std::uint64_t> succ, pred, expect(n);
  algo::link_list(order, succ, pred);
  for (std::uint64_t t = 0; t < n; ++t) expect[order[t]] = n - 1 - t;
  NoMachine mach(8, {{8, 4}});
  EXPECT_EQ(no_list_rank(mach, succ, pred), expect);
}

TEST(NoWrappers, ConnectedComponentsCorrect) {
  algo::EdgeList g;
  g.n = 300;
  util::Xoshiro256 rng(13);
  for (int e = 0; e < 350; ++e) {
    g.edges.emplace_back(static_cast<std::uint32_t>(rng.below(g.n)),
                         static_cast<std::uint32_t>(rng.below(g.n)));
  }
  NoMachine mach(8, {{8, 4}});
  const auto got = no_connected_components(mach, g);
  const auto ref = algo::cc_bfs_reference(g);
  // Same partition check.
  for (std::uint64_t u = 0; u < g.n; ++u) {
    for (std::uint64_t v = u + 1; v < std::min<std::uint64_t>(g.n, u + 40);
         ++v) {
      ASSERT_EQ(got[u] == got[v], ref[u] == ref[v])
          << u << "," << v;
    }
  }
}

}  // namespace
}  // namespace obliv::no
