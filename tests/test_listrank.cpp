#include "algo/listrank.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/graphgen.hpp"
#include "fault/status.hpp"
#include "hm/config.hpp"
#include "no/executor.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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

/// Runs `f` inside a simulator run, or directly on a native executor.
template <class F>
void in_run(SimExecutor& ex, F&& f) {
  ex.run(1 << 12, f);
}
template <class F>
void in_run(sched::NativeExecutor&, F&& f) {
  f();
}

/// The pull precondition on one executor: each rejected call throws
/// kInvalidArgument before any write; a field that is the target and two
/// outputs that are the same array (lr_rec's mo_pull3 shape) are accepted.
template <class Exec>
void expect_pull_aliasing_checked(Exec& ex) {
  constexpr std::uint64_t n = 64;
  auto buf = ex.template make_buf<std::uint64_t>(4 * n);
  for (std::uint64_t i = 0; i < 4 * n; ++i) buf.raw()[i] = i * 7 % n;
  const auto all = buf.ref();
  const auto t = all.slice(0, n), f = all.slice(n, n), o = all.slice(2 * n, n),
             p = all.slice(3 * n, n);
  std::vector<std::uint64_t> before = buf.raw();
  auto rejects = [&](const char* what, auto&& call) {
    in_run(ex, [&] {
      try {
        call();
        ADD_FAILURE() << what << " was accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << what;
      }
    });
    EXPECT_EQ(buf.raw(), before) << what << " wrote before the check";
  };
  rejects("out == target", [&] { mo_pull(ex, t, f, t, 0); });
  rejects("out == field", [&] { mo_pull(ex, t, f, f, 0); });
  rejects("out sharing the field's last element",
          [&] { mo_pull(ex, t, f, all.slice(2 * n - 1, n), 0); });
  rejects("out shorter than target",
          [&] { mo_pull(ex, t, f, o.slice(0, n - 1), 0); });
  rejects("mo_pull3 output == a field",
          [&] { mo_pull3(ex, t, f, f, p, o, o, p, 0, 0, 0); });
  rejects("mo_pull3 output == target",
          [&] { mo_pull3(ex, t, f, f, f, o, p, t, 0, 0, 0); });
  rejects("mo_pull3 outputs overlapping in part", [&] {
    mo_pull3(ex, t, f, f, f, o, all.slice(2 * n + 1, n), o, 0, 0, 0);
  });

  in_run(ex, [&] {
    mo_pull(ex, t, t, o, 0);
    mo_pull3(ex, t, f, t, t, o, p, p, 0, kNil, kNil);
  });
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t s = before[v];
    EXPECT_EQ(buf.raw()[2 * n + v], before[n + s]) << v;
    EXPECT_EQ(buf.raw()[3 * n + v], before[s]) << v;
  }

  // Through a plan, checked the same way once the plan serves pulls.
  detail::PullRouter r(ex, t);
  in_run(ex, [&] { r.pull({f}, {o}, {0}); });
  before = buf.raw();
  rejects("planned out == target", [&] { r.pull({f}, {t}, {0}); });
  rejects("planned out == field", [&] { r.pull({f}, {f}, {0}); });
  rejects("planned pull3 outputs overlapping in part", [&] {
    r.pull({f, f, f}, {o, all.slice(2 * n + 1, n), o}, {0, 0, 0});
  });
}

TEST(Pull, RejectsOutputAliasingAnInput) {
  {
    SCOPED_TRACE("simulator");
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    expect_pull_aliasing_checked(ex);
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("native, " + std::to_string(threads) + " workers");
    sched::NativeExecutor ex(threads);
    expect_pull_aliasing_checked(ex);
  }
}

/// One router, several pulls in sequence on one buffer [target | f0 | f1 |
/// f2 | o0 .. o4]: a field, the target itself as the field, a three-field
/// pull whose last two outputs are the same array, then another field.
template <class Exec, class Ref>
void planned_pulls(Exec& ex, Ref all) {
  const std::uint64_t n = all.size() / 9;
  auto part = [&](std::uint64_t k) { return all.slice(k * n, n); };
  detail::PullRouter r(ex, part(0));
  r.pull({part(1)}, {part(4)}, {777});
  r.pull({part(0)}, {part(5)}, {kNil});
  r.pull({part(2), part(0), part(3)}, {part(6), part(7), part(7)},
         {1, kNil, 3});
  r.pull({part(3)}, {part(8)}, {5});
}

/// Targets of pattern p: a random list's succ (kNil at the tail), CC's
/// parent shape (a few roots pointing at themselves, every other vertex
/// at a root, some kNil), or all kNil.
std::vector<std::uint64_t> planned_targets(int p, std::uint64_t n,
                                           util::Xoshiro256& g) {
  std::vector<std::uint64_t> t(n, kNil);
  if (p == 0) {
    std::vector<std::uint64_t> pred;
    link_list(random_list_order(n, g), t, pred);
  } else if (p == 1) {
    const std::uint64_t roots = n / 16 + 1;
    for (std::uint64_t v = 0; v < n; ++v) {
      if (v < roots) {
        t[v] = v;
      } else if (v % 7 != 0) {
        t[v] = g.below(roots);
      }
    }
  }
  return t;
}

TEST(Pull, PlannedPullsMatchGather) {
  util::Xoshiro256 g(91);
  for (const std::uint64_t n : {1, 2, 65, 1000, 3001}) {
    for (int p = 0; p < 3; ++p) {
      SCOPED_TRACE("n=" + std::to_string(n) + " targets " + std::to_string(p));
      std::vector<std::uint64_t> in = planned_targets(p, n, g);
      for (std::uint64_t i = 0; i < 3 * n; ++i) in.push_back(g());
      in.resize(9 * n, 0xdeadbeefull);

      // The native gather, checked against the definition.
      std::vector<std::uint64_t> gather = in;
      {
        sched::NativeExecutor ex(1);
        planned_pulls(ex, sched::NatRef<std::uint64_t>(gather.data(), 9 * n));
      }
      for (std::uint64_t v = 0; v < n; ++v) {
        const std::uint64_t s = in[v];
        auto field = [&](std::uint64_t k, std::uint64_t d) {
          return s == kNil ? d : in[k * n + s];
        };
        ASSERT_EQ(gather[4 * n + v], field(1, 777)) << v;
        ASSERT_EQ(gather[5 * n + v], field(0, kNil)) << v;
        ASSERT_EQ(gather[6 * n + v], field(2, 1)) << v;
        ASSERT_EQ(gather[7 * n + v], field(3, 3)) << v;
        ASSERT_EQ(gather[8 * n + v], field(3, 5)) << v;
      }

      {
        SCOPED_TRACE("simulator");
        SimExecutor ex(hm::MachineConfig::shared_l2(4));
        auto b = ex.make_buf<std::uint64_t>(9 * n);
        b.raw() = in;
        ex.run(24 * n, [&] { planned_pulls(ex, b.ref()); });
        EXPECT_EQ(b.raw(), gather);
      }
      {
        SCOPED_TRACE("NO");
        no::NoMachine mach(16, {{4, 4}});
        no::NoExecutor ex(&mach);
        auto b = ex.make_buf<std::uint64_t>(9 * n);
        b.raw() = in;
        planned_pulls(ex, b.ref());
        mach.end_superstep();
        EXPECT_EQ(b.raw(), gather);
      }
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("native kGeneric, " + std::to_string(threads) +
                     " workers");
        simd::ScopedMode sm(simd::Mode::kGeneric);
        sched::NativeExecutor ex(threads);
        std::vector<std::uint64_t> out = in;
        planned_pulls(ex, sched::NatRef<std::uint64_t>(out.data(), 9 * n));
        EXPECT_EQ(out, gather);
      }
    }
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
