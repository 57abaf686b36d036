// CacheSim against an independent naive model of the HM caches.
//
// NaiveHm below is Section II taken literally, with none of CacheSim's
// machinery: one std::list in LRU order per cache, a std::set of L1 holders
// per B_1 block, and every B_1 block an access covers touched in address
// order.  A write first invalidates the block in every other L1 that holds
// it (one ping-pong if there was any); an L1 miss then walks the caches
// above the core until one hits, the level-i block being the one that
// holds the B_1 block's first word.  Every counter of every cache, the
// ping-pong count and the access count must match CacheSim exactly, on the
// executor-captured Table-II traces, on seeded random multi-word traces,
// and on five machine shapes: one to three shared levels, one core, and
// block sizes that are not powers of two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "hm/cache_sim.hpp"
#include "hm/flat_table.hpp"
#include "sim_traces.hpp"
#include "util/rng.hpp"

namespace obliv::hm {
namespace {

using traces::Trace;

class NaiveHm {
 public:
  explicit NaiveHm(const MachineConfig& cfg) : cfg_(cfg) {
    caches_.resize(cfg.cache_levels());
    for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
      const std::uint64_t lines =
          std::max<std::uint64_t>(1, cfg.capacity(lvl) / cfg.block(lvl));
      caches_[lvl - 1].assign(cfg.caches_at(lvl), Cache{lines, {}, {}, {}});
    }
  }

  void access(std::uint32_t core, std::uint64_t addr, std::uint32_t words,
              bool write) {
    const std::uint64_t n = std::max<std::uint32_t>(words, 1);
    accesses_ += n;
    const std::uint64_t b1 = cfg_.block(1);
    for (std::uint64_t blk = addr / b1; blk <= (addr + n - 1) / b1; ++blk) {
      touch(core, blk, write);
    }
  }

  /// Hits, misses, evictions and invalidations of every cache, level by
  /// level, then ping-pongs and accesses.
  std::vector<std::uint64_t> counters() const {
    std::vector<std::uint64_t> out;
    for (const auto& row : caches_) {
      for (const Cache& c : row) {
        out.insert(out.end(), {c.ctr.hits, c.ctr.misses, c.ctr.evictions,
                               c.ctr.invalidations});
      }
    }
    out.insert(out.end(), {pingpong_, accesses_});
    return out;
  }

  /// Blocks held by at least one L1.
  std::size_t held_blocks() const {
    std::size_t n = 0;
    for (const auto& [blk, holders] : holders_) n += holders.empty() ? 0 : 1;
    return n;
  }

 private:
  struct Cache {
    std::uint64_t lines;
    std::list<std::uint64_t> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        where;
    CacheCounters ctr;

    /// True on a hit.  On a miss installs `blk` and, when over capacity,
    /// evicts the least recently used block into `victim`.
    bool touch(std::uint64_t blk, std::uint64_t& victim) {
      victim = ~0ull;
      if (auto it = where.find(blk); it != where.end()) {
        lru.splice(lru.begin(), lru, it->second);
        ++ctr.hits;
        return true;
      }
      ++ctr.misses;
      lru.push_front(blk);
      where[blk] = lru.begin();
      if (lru.size() > lines) {
        victim = lru.back();
        where.erase(victim);
        lru.pop_back();
        ++ctr.evictions;
      }
      return false;
    }

    void invalidate(std::uint64_t blk) {
      lru.erase(where.at(blk));
      where.erase(blk);
      ++ctr.invalidations;
    }
  };

  void touch(std::uint32_t core, std::uint64_t blk, bool write) {
    std::set<std::uint32_t>& holders = holders_[blk];
    if (write) {
      bool others = false;
      for (std::uint32_t c : holders) {
        if (c == core) continue;
        caches_[0][c].invalidate(blk);
        others = true;
      }
      if (others) ++pingpong_;
      const bool mine = holders.count(core) != 0;
      holders.clear();
      if (mine) holders.insert(core);
    }
    std::uint64_t victim;
    if (caches_[0][core].touch(blk, victim)) return;
    holders.insert(core);
    if (victim != ~0ull) holders_[victim].erase(core);
    const std::uint64_t word = blk * cfg_.block(1);
    for (std::uint32_t lvl = 2; lvl <= cfg_.cache_levels(); ++lvl) {
      Cache& c = caches_[lvl - 1][cfg_.cache_of(core, lvl)];
      if (c.touch(word / cfg_.block(lvl), victim)) return;
    }
  }

  MachineConfig cfg_;
  std::vector<std::vector<Cache>> caches_;  // [level-1][cache index]
  std::unordered_map<std::uint64_t, std::set<std::uint32_t>> holders_;
  std::uint64_t pingpong_ = 0;
  std::uint64_t accesses_ = 0;
};

std::vector<std::uint64_t> sim_counters(const MachineConfig& cfg,
                                        const Trace& t) {
  CacheSim sim(cfg);
  for (const auto& e : t) sim.access(e.core, e.addr, e.words, e.write != 0);
  std::vector<std::uint64_t> out;
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const CacheCounters& c = sim.counters(lvl, i);
      out.insert(out.end(), {c.hits, c.misses, c.evictions, c.invalidations});
    }
  }
  out.insert(out.end(), {sim.pingpong_events(), sim.total_accesses()});
  return out;
}

std::vector<std::uint64_t> naive_counters(const MachineConfig& cfg,
                                          const Trace& t) {
  NaiveHm model(cfg);
  for (const auto& e : t) model.access(e.core, e.addr, e.words, e.write != 0);
  return model.counters();
}

void expect_matches_naive(const MachineConfig& cfg) {
  auto all = traces::batching_traces(cfg);
  // Footprints that fit in half an L1 and in four L1s: re-touches at every
  // recency depth, write sharing between cores, and L1 evictions that hit
  // in the shared levels.
  for (std::uint64_t seed : {11, 12}) {
    all.emplace_back("hot-" + std::to_string(seed),
                     traces::random_trace(cfg, seed, 30000,
                                          cfg.capacity(1) / 2, 24));
    all.emplace_back("warm-" + std::to_string(seed),
                     traces::random_trace(cfg, seed, 30000,
                                          4 * cfg.capacity(1), 24));
  }
  for (const auto& [name, trace] : all) {
    EXPECT_EQ(sim_counters(cfg, trace), naive_counters(cfg, trace))
        << name << " on " << cfg.describe();
  }
}

TEST(CacheSimOracle, SharedL2) {
  expect_matches_naive(MachineConfig::shared_l2(4));
}

TEST(CacheSimOracle, ThreeLevel) {
  expect_matches_naive(MachineConfig::three_level(2, 2));
}

TEST(CacheSimOracle, Figure1) { expect_matches_naive(MachineConfig::figure1()); }

TEST(CacheSimOracle, OneCore) {
  expect_matches_naive(MachineConfig(
      "one_core", {LevelSpec{1024, 8, 1}, LevelSpec{16384, 16, 1}}));
}

TEST(CacheSimOracle, BlocksOfSixAndTwelve) {
  expect_matches_naive(MachineConfig(
      "odd_blocks", {LevelSpec{768, 6, 1}, LevelSpec{12288, 12, 4}}));
}

TEST(CacheSimOracle, InvalidationStormOnTinyL1s) {
  // Eight cores with 4- and 8-line L1s read and write 64 B_1 blocks: nearly
  // every access invalidates, evicts or re-installs a block, so the L1
  // tables (16 slots) and the sharer table (256 slots) delete all the
  // time.  Every block hashes to the last four slots of both, so clusters
  // always wrap past the end and each deletion's backward shift must
  // follow them across it.
  constexpr std::uint64_t kB1 = 4;
  std::vector<std::uint64_t> blocks;
  for (std::uint64_t b = 0; blocks.size() < 64; ++b) {
    if (bucket_of(b, 255) >= 252) blocks.push_back(b);
  }
  for (const std::uint64_t b : blocks) ASSERT_GE(bucket_of(b, 15), 12u);
  for (const std::uint64_t l1_lines : {4u, 8u}) {
    const MachineConfig cfg(
        "storm", {LevelSpec{l1_lines * kB1, kB1, 1}, LevelSpec{256, 8, 4},
                  LevelSpec{2048, 16, 2}});
    ASSERT_EQ(cfg.cores(), 8u);
    util::Xoshiro256 rng(l1_lines);
    Trace t;
    for (int i = 0; i < 40000; ++i) {
      const std::uint64_t off = rng.below(kB1);
      t.push_back({blocks[rng.below(blocks.size())] * kB1 + off,
                   static_cast<std::uint32_t>(1 + rng.below(kB1 - off)),
                   static_cast<std::uint8_t>(rng.below(8)),
                   static_cast<std::uint8_t>(rng.below(2))});
    }
    CacheSim sim(cfg);
    NaiveHm model(cfg);
    for (const auto& e : t) {
      sim.access(e.core, e.addr, e.words, e.write != 0);
      model.access(e.core, e.addr, e.words, e.write != 0);
    }
    EXPECT_EQ(sim_counters(cfg, t), model.counters()) << l1_lines << " lines";
    EXPECT_GT(sim.pingpong_events(), 1000u);
    // The sharer table holds exactly the blocks some L1 holds.
    EXPECT_EQ(sim.sharer_entries(), model.held_blocks());
  }
}

}  // namespace
}  // namespace obliv::hm
