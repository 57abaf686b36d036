#include "algo/listrank.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "algo/graphgen.hpp"
#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

/// Builds a list of n nodes in random memory order; returns (succ, pred,
/// expected ranks).
struct ListInstance {
  std::vector<std::uint64_t> succ, pred, rank;
};

ListInstance random_list(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::vector<std::uint64_t> order = random_list_order(n, rng);
  ListInstance li;
  link_list(order, li.succ, li.pred);
  li.rank.assign(n, 0);
  for (std::uint64_t t = 0; t < n; ++t) li.rank[order[t]] = n - 1 - t;
  return li;
}

ListInstance sequential_list(std::uint64_t n) {
  ListInstance li;
  li.succ.assign(n, kNil);
  li.pred.assign(n, kNil);
  li.rank.assign(n, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    li.rank[v] = n - 1 - v;
    if (v + 1 < n) {
      li.succ[v] = v + 1;
      li.pred[v + 1] = v;
    }
  }
  return li;
}

std::vector<std::uint64_t> run_mo_lr(const ListInstance& li,
                                     sched::RunMetrics* metrics = nullptr) {
  const std::uint64_t n = li.succ.size();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  auto m = ex.run(8 * n, [&] {
    mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
  });
  if (metrics) *metrics = m;
  return db.raw();
}

TEST(Pull, RoutesFieldThroughTargets) {
  const std::uint64_t n = 500;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto target = ex.make_buf<std::uint64_t>(n);
  auto field = ex.make_buf<std::uint64_t>(n);
  auto out = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(1);
  for (std::uint64_t v = 0; v < n; ++v) {
    target.raw()[v] = v % 7 == 0 ? kNil : rng.below(n);
    field.raw()[v] = 1000 + v;
  }
  ex.run(8 * n, [&] {
    mo_pull(ex, target.ref(), field.ref(), out.ref(), 777);
  });
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t t = target.raw()[v];
    EXPECT_EQ(out.raw()[v], t == kNil ? 777 : 1000 + t) << v;
  }
}

class ListRankSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListRankSizes, RandomOrderList) {
  const auto li = random_list(GetParam(), GetParam() * 7 + 1);
  EXPECT_EQ(run_mo_lr(li), li.rank);
}

TEST_P(ListRankSizes, SequentialOrderList) {
  const auto li = sequential_list(GetParam());
  EXPECT_EQ(run_mo_lr(li), li.rank);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ListRankSizes,
                         ::testing::Values(1, 2, 3, 64, 65, 100, 333, 1000,
                                           4096, 10000));

TEST(ListRank, WeightedDistances) {
  const std::uint64_t n = 300;
  auto li = random_list(n, 9);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto lb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  util::Xoshiro256 rng(11);
  for (auto& w : lb.raw()) w = 1 + rng.below(9);
  // Expected: walk backward accumulating weights.
  std::vector<std::uint64_t> expect(n, 0);
  std::uint64_t tail = 0;
  while (li.succ[tail] != kNil) tail = li.succ[tail];
  for (std::uint64_t u = tail; li.pred[u] != kNil; u = li.pred[u]) {
    expect[li.pred[u]] = expect[u] + lb.raw()[li.pred[u]];
  }
  ex.run(8 * n, [&] {
    mo_list_rank_weighted(ex, sb.ref(), pb.ref(), lb.ref(), db.ref());
  });
  EXPECT_EQ(db.raw(), expect);
}

TEST(ListRank, SequentialBaselineCorrect) {
  const auto li = random_list(500, 21);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(500);
  auto pb = ex.make_buf<std::uint64_t>(500);
  auto db = ex.make_buf<std::uint64_t>(500);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  ex.run(8 * 500, [&] {
    list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
  });
  EXPECT_EQ(db.raw(), li.rank);
}

TEST(ListRank, NativeExecutorCorrect) {
  const std::uint64_t n = 20000;
  const auto li = random_list(n, 31);
  sched::NativeExecutor ex(4);
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
  EXPECT_EQ(db.raw(), li.rank);
}

TEST(ListRank, DcfRoundsKnobPreservesCorrectness) {
  // Paper footnote 4: k applications of deterministic coin flipping shrink
  // the color count to O(log^(k) n).  Any k >= 2 must give correct ranks.
  const std::uint64_t n = 2000;
  const auto li = random_list(n, 55);
  for (int rounds : {2, 3, 5}) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto sb = ex.make_buf<std::uint64_t>(n);
    auto pb = ex.make_buf<std::uint64_t>(n);
    auto db = ex.make_buf<std::uint64_t>(n);
    sb.raw() = li.succ;
    pb.raw() = li.pred;
    ex.run(8 * n, [&] {
      mo_list_rank(ex, sb.ref(), pb.ref(), db.ref(), rounds);
    });
    ASSERT_EQ(db.raw(), li.rank) << "dcf_rounds=" << rounds;
  }
}

TEST(ListRank, DcfStepShrinksColorsAndKeepsThemProper) {
  // Direct unit test of the coloring: after each DCF application adjacent
  // nodes still differ and the color range shrinks to 2(1 + log(range)).
  const std::uint64_t n = 5000;
  const auto li = random_list(n, 66);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto cb = ex.make_buf<std::uint64_t>(n);
  auto scb = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  for (std::uint64_t v = 0; v < n; ++v) cb.raw()[v] = v;
  std::uint64_t prev_max = n;
  ex.run(8 * n, [&] {
    for (int round = 0; round < 3; ++round) {
      mo_pull(ex, sb.ref(), cb.ref(), scb.ref(), kNil);
      detail::dcf_step(ex, cb.ref(), scb.ref(), sb.ref());
      std::uint64_t max_color = 0;
      for (std::uint64_t v = 0; v < n; ++v) {
        max_color = std::max(max_color, cb.raw()[v]);
        if (li.succ[v] != kNil) {
          ASSERT_NE(cb.raw()[v], cb.raw()[li.succ[v]])
              << "round " << round << " node " << v;
        }
      }
      ASSERT_LT(max_color, prev_max);
      prev_max = max_color;
    }
  });
  EXPECT_LE(prev_max, 7u);  // <= 8 colors after three applications
}

TEST(ListRank, SpanStaysPolylog) {
  // Theorem 7: parallel steps O((n/p) log n + polylog terms); the span must
  // be far below the sequential baseline's Theta(n) pointer chase.
  const std::uint64_t n = 1 << 13;
  const auto li = random_list(n, 41);
  sched::RunMetrics m;
  run_mo_lr(li, &m);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  auto mseq = ex.run(8 * n, [&] {
    list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
  });
  EXPECT_EQ(mseq.span, mseq.work);        // baseline has zero parallelism
  EXPECT_LT(m.span * 2, m.work);          // MO-LR is genuinely parallel
}

}  // namespace
}  // namespace obliv::algo
