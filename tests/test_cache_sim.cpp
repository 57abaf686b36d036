#include "hm/cache_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim_traces.hpp"

namespace obliv::hm {
namespace {

TEST(LruCache, HitAndMiss) {
  LruCache c(2);
  EXPECT_FALSE(c.touch(1));
  EXPECT_TRUE(c.touch(1));
  EXPECT_FALSE(c.touch(2));
  EXPECT_TRUE(c.touch(2));
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(2);
  c.touch(1);
  c.touch(2);
  c.touch(1);          // order now: 1 (MRU), 2 (LRU)
  EXPECT_FALSE(c.touch(3));
  EXPECT_EQ(c.last_evicted(), 2u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, EraseSupportsCoherence) {
  LruCache c(4);
  c.touch(7);
  EXPECT_TRUE(c.erase(7));
  EXPECT_FALSE(c.erase(7));
  EXPECT_FALSE(c.contains(7));
  EXPECT_FALSE(c.touch(7));  // miss again after invalidation
}

TEST(CacheSim, SequentialScanMissesMatchBlockCount) {
  // Scanning n contiguous words misses exactly n / B_i times per level
  // (cold caches, n a multiple of every block size).
  const MachineConfig cfg = MachineConfig::sequential(1 << 14, 8);
  CacheSim sim(cfg);
  const std::uint64_t n = 4096;
  for (std::uint64_t a = 0; a < n; ++a) sim.access(0, a, 1, false);
  EXPECT_EQ(sim.level_total_misses(1), n / cfg.block(1));
}

TEST(CacheSim, RepeatScanOfFittingDataHits) {
  const MachineConfig cfg = MachineConfig::sequential(1 << 14, 8);
  CacheSim sim(cfg);
  const std::uint64_t n = 1 << 12;  // fits in the cache
  for (std::uint64_t a = 0; a < n; ++a) sim.access(0, a, 1, false);
  const std::uint64_t cold = sim.level_total_misses(1);
  for (std::uint64_t a = 0; a < n; ++a) sim.access(0, a, 1, false);
  EXPECT_EQ(sim.level_total_misses(1), cold);  // second scan fully cached
}

TEST(CacheSim, CyclicScanOfOversizedDataAlwaysMisses) {
  // With LRU, repeatedly scanning (capacity + 1 block) of data evicts the
  // block about to be needed: every block access misses.
  const MachineConfig cfg = MachineConfig::sequential(1024, 8);
  CacheSim sim(cfg);
  const std::uint64_t n = 1024 + 8;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < n; a += 8) sim.access(0, a, 1, false);
  }
  EXPECT_EQ(sim.level_total_misses(1), 3 * (n / 8));
}

TEST(CacheSim, PrivateCachesAreIndependent) {
  const MachineConfig cfg = MachineConfig::shared_l2(4);
  CacheSim sim(cfg);
  // Core 0 reads a range; core 1 reading it again misses in its own L1 but
  // hits in the shared L2.
  for (std::uint64_t a = 0; a < 256; ++a) sim.access(0, a, 1, false);
  const std::uint64_t l2_after_core0 = sim.level_total_misses(2);
  for (std::uint64_t a = 0; a < 256; ++a) sim.access(1, a, 1, false);
  EXPECT_GT(sim.counters(1, 1).misses, 0u);           // L1 of core 1 misses
  EXPECT_EQ(sim.level_total_misses(2), l2_after_core0);  // L2 all hits
}

TEST(CacheSim, WriteSharingPingPongs) {
  const MachineConfig cfg = MachineConfig::shared_l2(2);
  CacheSim sim(cfg);
  // Both cores alternate writes to the same B_1 block.
  for (int t = 0; t < 10; ++t) {
    sim.access(0, 0, 1, true);
    sim.access(1, 0, 1, true);
  }
  EXPECT_GE(sim.pingpong_events(), 19u);  // every write after the first
}

TEST(CacheSim, DisjointBlocksDoNotPingPong) {
  const MachineConfig cfg = MachineConfig::shared_l2(2);
  CacheSim sim(cfg);
  for (int t = 0; t < 10; ++t) {
    sim.access(0, 0, 1, true);
    sim.access(1, cfg.block(1), 1, true);  // different B_1 block
  }
  EXPECT_EQ(sim.pingpong_events(), 0u);
}

TEST(CacheSim, ResetStatsKeepsContents) {
  const MachineConfig cfg = MachineConfig::sequential();
  CacheSim sim(cfg);
  for (std::uint64_t a = 0; a < 64; ++a) sim.access(0, a, 1, false);
  sim.reset_stats();
  EXPECT_EQ(sim.level_total_misses(1), 0u);
  for (std::uint64_t a = 0; a < 64; ++a) sim.access(0, a, 1, false);
  EXPECT_EQ(sim.level_total_misses(1), 0u);  // still warm
  sim.clear();
  for (std::uint64_t a = 0; a < 64; ++a) sim.access(0, a, 1, false);
  EXPECT_GT(sim.level_total_misses(1), 0u);  // cold after clear
}

TEST(CacheSim, MultiWordAccessTouchesAllBlocks) {
  const MachineConfig cfg = MachineConfig::sequential(1 << 14, 8);
  CacheSim sim(cfg);
  sim.access(0, 0, 32, false);  // 32 words = 4 blocks of 8
  EXPECT_EQ(sim.level_total_misses(1), 4u);
}

// ---------------------------------------------------------------------------
// Run batching is exact: a k-word range access must leave every observable
// counter exactly where k single-word accesses in address order leave it.
// The views issue batched runs (SimRef::load_run, executor copies) while
// the paper's cost model counts word by word, so this equality is what
// lets the batched simulator reproduce Table II at all.  Checked on the
// executor-captured access streams of the Table-II workloads and on seeded
// random multi-word traces, on the machine configs the throughput bench
// replays.
// ---------------------------------------------------------------------------

using traces::Trace;

/// Word-at-a-time expansion: every k-word access becomes k single-word
/// accesses in address order, by the same core, with the same direction.
Trace unbatch(const Trace& t) {
  Trace out;
  for (const auto& e : t) {
    for (std::uint32_t w = 0; w < std::max<std::uint32_t>(e.words, 1); ++w) {
      out.push_back({e.addr + w, 1, e.core, e.write});
    }
  }
  return out;
}

/// Misses, evictions and invalidations of every cache, then ping-pongs.
std::vector<std::uint64_t> replay_counters(const MachineConfig& cfg,
                                           const Trace& t) {
  CacheSim sim(cfg);
  for (const auto& e : t) sim.access(e.core, e.addr, e.words, e.write != 0);
  std::vector<std::uint64_t> out;
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const CacheCounters& c = sim.counters(lvl, i);
      out.insert(out.end(), {c.misses, c.evictions, c.invalidations});
    }
  }
  out.push_back(sim.pingpong_events());
  return out;
}

class CacheSimBatching : public ::testing::TestWithParam<int> {};

TEST_P(CacheSimBatching, BatchedRunsCountLikeWordAtATimeReplay) {
  const MachineConfig cfg = GetParam() == 0 ? MachineConfig::shared_l2(4)
                                            : MachineConfig::figure1();
  std::size_t batched = 0;
  for (const auto& [name, trace] : traces::batching_traces(cfg)) {
    const Trace words = unbatch(trace);
    if (words.size() > trace.size()) ++batched;
    EXPECT_EQ(replay_counters(cfg, trace), replay_counters(cfg, words))
        << name << " on " << cfg.name();
  }
  // scan, spms-sort and the three random traces issue multi-word runs;
  // MO-MT and I-GEP are word-at-a-time today and stay in the set so a
  // batched version of either is covered the day it lands.
  EXPECT_GE(batched, 5u) << "too few traces exercise run batching";
}

INSTANTIATE_TEST_SUITE_P(Configs, CacheSimBatching, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return param_info.param == 0 ? std::string("shared_l2")
                                                        : std::string("figure1");
                         });

}  // namespace
}  // namespace obliv::hm
