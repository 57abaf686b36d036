#include "sched/sim_executor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hm/config.hpp"

namespace obliv::sched {
namespace {

TEST(SimExecutor, CgcPforCoversRangeExactlyOnce) {
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  std::vector<int> hits(1000, 0);
  ex.run(1000, [&] {
    sched::cgc_pfor_each(ex, 0, hits.size(), 1,
                         [&](std::uint64_t k) { hits[k]++; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SimExecutor, CgcPforSpreadsAcrossCores) {
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  std::vector<std::uint32_t> core_of(4096, 0);
  ex.run(1u << 20, [&] {  // root anchored above L1 so all cores are used
    sched::cgc_pfor_each(ex, 0, core_of.size(), 1, [&](std::uint64_t k) {
      core_of[k] = ex.current_core();
    });
  });
  std::vector<bool> used(4, false);
  for (std::uint32_t c : core_of) {
    ASSERT_LT(c, 4u);
    used[c] = true;
  }
  for (bool u : used) EXPECT_TRUE(u);
  // Contiguity: core ids must be non-decreasing along the range (CGC gives
  // the j-th contiguous segment to the j-th core).
  for (std::size_t k = 1; k < core_of.size(); ++k) {
    EXPECT_LE(core_of[k - 1], core_of[k]);
  }
}

TEST(SimExecutor, CgcSegmentsRespectB1) {
  // With a tiny range, CGC must not split below B_1 words per segment:
  // fewer cores are used instead.
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(8);  // B1 = 8
  SimExecutor ex(cfg);
  std::vector<std::uint32_t> core_of(16, 0);
  ex.run(1u << 20, [&] {
    sched::cgc_pfor_each(ex, 0, 16, 1, [&](std::uint64_t k) {
      core_of[k] = ex.current_core();
    });
  });
  // 16 iterations of 1 word with B1=8 -> at most 2 segments.
  std::uint32_t distinct = 1;
  for (std::size_t k = 1; k < core_of.size(); ++k) {
    if (core_of[k] != core_of[k - 1]) ++distinct;
  }
  EXPECT_LE(distinct, 2u);
}

TEST(SimExecutor, WorkSpanOfBalancedPfor) {
  const std::uint32_t p = 8;
  SimExecutor ex(hm::MachineConfig::shared_l2(p));
  const std::uint64_t n = 1 << 14;
  RunMetrics m = ex.run(1ull << 40, [&] {
    sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t) { ex.tick(1); });
  });
  EXPECT_EQ(m.work, n);
  // Perfectly balanced: span == n / p.
  EXPECT_EQ(m.span, n / p);
}

TEST(SimExecutor, SbParallelRunsDisjointTasksInParallel) {
  const std::uint32_t p = 4;
  SimExecutor ex(hm::MachineConfig::shared_l2(p));
  const std::uint64_t c1 = ex.config().capacity(1);
  RunMetrics m = ex.run(1ull << 40, [&] {
    const auto body = [&] {
      for (int i = 0; i < 1000; ++i) ex.tick(1);
    };
    ex.sb_parallel(
        {{c1 / 2, body}, {c1 / 2, body}, {c1 / 2, body}, {c1 / 2, body}});
  });
  EXPECT_EQ(m.work, 4000u);
  EXPECT_EQ(m.span, 1000u);  // four L1-sized tasks on four distinct cores
}

TEST(SimExecutor, SbTasksTooBigForLowerLevelSerialize) {
  const std::uint32_t p = 4;
  SimExecutor ex(hm::MachineConfig::shared_l2(p));
  const std::uint64_t c2 = ex.config().capacity(2);
  RunMetrics m = ex.run(1ull << 40, [&] {
    const auto body = [&] {
      for (int i = 0; i < 100; ++i) ex.tick(1);
    };
    ex.sb_parallel({{c2, body}, {c2, body}});
  });
  // Both tasks exceed C_1; with the root anchored at memory and both too
  // large for... actually they fit L2, so they go to the single L2 and
  // queue: span = 200.
  EXPECT_EQ(m.span, 200u);
}

TEST(SimExecutor, SbAnchoringKeepsFittingTaskMissesCompulsory) {
  // A task whose working set fits L2 and is touched twice should incur L2
  // misses only for the initial load (compulsory), not for the second pass.
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  const std::uint64_t n = ex.config().capacity(2) / 4;
  auto buf = ex.make_buf<double>(n);
  RunMetrics m = ex.run(3 * n, [&] {
    auto v = buf.ref();
    ex.sb_parallel({SbTask{n, [&] {
                             for (std::uint64_t i = 0; i < n; ++i) v.load(i);
                             for (std::uint64_t i = 0; i < n; ++i) v.load(i);
                           }}});
  });
  const std::uint64_t b2 = ex.config().block(2);
  EXPECT_LE(m.level_max_misses[1], n / b2 + 2);
}

TEST(SimExecutor, CgcSbDistributesAcrossCaches) {
  // 4 subtasks each fitting an L1 on a 4-core machine: they should land on
  // 4 distinct L1 caches and run fully in parallel.
  const std::uint32_t p = 4;
  SimExecutor ex(hm::MachineConfig::shared_l2(p));
  const std::uint64_t c1 = ex.config().capacity(1);
  std::vector<std::uint32_t> core_of(p, 0);
  RunMetrics m = ex.run(1ull << 40, [&] {
    ex.cgc_sb_pfor(p, c1 / 2, [&](std::uint64_t s) {
      core_of[s] = ex.current_core();
      for (int i = 0; i < 50; ++i) ex.tick(1);
    });
  });
  std::vector<bool> used(p, false);
  for (std::uint32_t c : core_of) used[c] = true;
  for (bool u : used) EXPECT_TRUE(u);
  EXPECT_EQ(m.span, 50u);
}

TEST(SimExecutor, CgcSbSerializesWhenSubtasksExceedLowerCaches) {
  const std::uint32_t p = 4;
  SimExecutor ex(hm::MachineConfig::shared_l2(p));
  const std::uint64_t c2 = ex.config().capacity(2);
  RunMetrics m = ex.run(1ull << 40, [&] {
    ex.cgc_sb_pfor(3, c2, [&](std::uint64_t) {
      for (int i = 0; i < 10; ++i) ex.tick(1);
    });
  });
  EXPECT_EQ(m.span, 30u);  // all three queue at the single L2
}

TEST(SimExecutor, NestedAnchoringNarrowsShadow) {
  // A task anchored at an L2 must only use cores under that L2's shadow.
  const hm::MachineConfig cfg = hm::MachineConfig::three_level(4, 4);  // 16c
  SimExecutor ex(cfg);
  std::vector<std::uint32_t> cores_seen;
  ex.run(1ull << 40, [&] {
    ex.cgc_sb_pfor(4, cfg.capacity(2) / 2, [&](std::uint64_t s) {
      // Each subtask anchored at one L2; a nested pfor spreads over the 4
      // cores under it.
      sched::cgc_pfor_each(ex, 0, 64, 64, [&](std::uint64_t) {
        cores_seen.push_back(ex.current_core() / 4);  // L2 index of core
      });
      (void)s;
    });
  });
  ASSERT_FALSE(cores_seen.empty());
}

TEST(SimExecutor, CgcSbLevelRuleKeepsCoresForNestedParallelism) {
  // Section III-C's t = max(i, j): with fewer subtasks than L1 caches, the
  // subtasks anchor high enough that nested pfors still use all cores;
  // the fit-only ablation pins them to single cores.
  const hm::MachineConfig cfg = hm::MachineConfig::three_level(4, 4);  // 16c
  auto span_of = [&](bool fit_only) {
    sched::SimPolicy policy;
    policy.cgcsb_fit_only = fit_only;
    SimExecutor ex(cfg, policy);
    return ex.run(1ull << 40, [&] {
      ex.cgc_sb_pfor(2, 64, [&](std::uint64_t) {
        ex.cgc_pfor(0, 1 << 12, 1, [&](std::uint64_t lo, std::uint64_t hi) {
          ex.tick(hi - lo);
        });
      });
    }).span;
  };
  EXPECT_EQ(span_of(false) * 8, span_of(true));
}

TEST(SimExecutor, SliceModeUsesOnlyL1Anchors) {
  SimPolicy policy;
  policy.slice_mode = true;
  SimExecutor ex(hm::MachineConfig::shared_l2(4), policy);
  std::vector<std::uint32_t> levels;
  ex.run(1ull << 40, [&] {
    ex.cgc_sb_pfor(8, ex.config().capacity(2) / 2, [&](std::uint64_t) {
      levels.push_back(ex.current_anchor_level());
    });
  });
  for (std::uint32_t lvl : levels) EXPECT_EQ(lvl, 1u);
}

TEST(SimExecutor, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimExecutor ex(hm::MachineConfig::three_level());
    const std::uint64_t n = 1 << 12;
    auto buf = ex.make_buf<double>(n);
    return ex.run(3 * n, [&] {
      auto v = buf.ref();
      sched::cgc_pfor_each(ex, 0, n, 1,
                           [&](std::uint64_t k) { v.store(k, double(k)); });
      sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t k) { v.load(k); });
    });
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.level_max_misses, b.level_max_misses);
  EXPECT_EQ(a.pingpong, b.pingpong);
}

TEST(SimExecutor, BlockAlignedCgcAvoidsPingPong) {
  // Writing a shared array via CGC with B1-respecting chunking must not
  // ping-pong; with chunk alignment disabled it may.
  auto pingpong_with = [](bool respect) {
    SimPolicy policy;
    policy.respect_block_boundaries = respect;
    SimExecutor ex(hm::MachineConfig::shared_l2(8), policy);
    const std::uint64_t n = 1 << 10;
    auto buf = ex.make_buf<double>(n);
    RunMetrics m = ex.run(3 * n, [&] {
      auto v = buf.ref();
      sched::cgc_pfor_each(ex, 0, n, 1,
                           [&](std::uint64_t k) { v.store(k, 1.0); });
    });
    return m.pingpong;
  };
  EXPECT_EQ(pingpong_with(true), 0u);
}

TEST(SimExecutor, RunResetsBetweenInvocations) {
  SimExecutor ex(hm::MachineConfig::sequential());
  auto buf = ex.make_buf<double>(256);
  auto body = [&] {
    auto v = buf.ref();
    for (int i = 0; i < 256; ++i) v.load(i);
  };
  const RunMetrics a = ex.run(256, body);
  const RunMetrics b = ex.run(256, body);
  EXPECT_EQ(a.level_max_misses, b.level_max_misses);  // cold both times
  EXPECT_GT(a.level_max_misses[0], 0u);
}

}  // namespace
}  // namespace obliv::sched
