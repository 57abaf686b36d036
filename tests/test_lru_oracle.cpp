// Randomized oracle test for the flat-table LRU cache (hm/cache_sim.hpp).
//
// A std::list + linear-search reference implements the fully-associative
// LRU policy the HM model specifies.  Long random operation streams --
// touches, coherence erases, known-node retouches, clears -- are applied to
// both; every hit/miss verdict, eviction victim, and size must match.  One
// stream runs long enough without a clear for the victim queue to
// renumber its recency stamps.  The streams are tuned to cross the
// open-addressing table's grow threshold repeatedly and to churn
// tombstones (erase + reinsert), so the find_or_slot / erase_at /
// rehash_now paths and the Node::slot backpointer resync all get
// exercised, including with power-of-two-strided block ids (the
// adversarial pattern for multiplicative hashing).
#include "hm/cache_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace obliv::hm {
namespace {

/// Reference LRU: front = most recently used.
class RefLru {
 public:
  explicit RefLru(std::size_t lines) : lines_(lines) {}

  /// Returns {hit, victim} with victim == UINT64_MAX when nothing evicted.
  std::pair<bool, std::uint64_t> touch(std::uint64_t block) {
    auto it = std::find(order_.begin(), order_.end(), block);
    if (it != order_.end()) {
      order_.splice(order_.begin(), order_, it);
      return {true, UINT64_MAX};
    }
    order_.push_front(block);
    std::uint64_t victim = UINT64_MAX;
    if (order_.size() > lines_) {
      victim = order_.back();
      order_.pop_back();
    }
    return {false, victim};
  }

  bool erase(std::uint64_t block) {
    auto it = std::find(order_.begin(), order_.end(), block);
    if (it == order_.end()) return false;
    order_.erase(it);
    return true;
  }

  void retouch(std::uint64_t block) {
    auto it = std::find(order_.begin(), order_.end(), block);
    ASSERT_NE(it, order_.end());
    order_.splice(order_.begin(), order_, it);
  }

  bool contains(std::uint64_t block) const {
    return std::find(order_.begin(), order_.end(), block) != order_.end();
  }

  void clear() { order_.clear(); }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t lines_;
  std::list<std::uint64_t> order_;
};

/// One adversarial stream against one cache geometry.  `stride` shapes the
/// block-id distribution (1 = dense, power of two = hash-adversarial).
void run_stream(std::size_t lines, std::uint64_t key_range,
                std::uint64_t stride, std::uint64_t seed, int ops,
                bool clears = true) {
  LruCache dut(lines);
  RefLru ref(lines);
  // block -> node index captured at touch() time; stays valid until the
  // block leaves the cache (eviction or erase), across any table rehash.
  std::unordered_map<std::uint64_t, std::uint32_t> node_of;
  util::Xoshiro256 rng(seed);

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t block = (rng() % key_range) * stride;
    const std::uint32_t kind = rng() % 16;
    if (kind < 11) {  // touch
      const auto [ref_hit, ref_victim] = ref.touch(block);
      const bool dut_hit = dut.touch(block);
      ASSERT_EQ(dut_hit, ref_hit) << "op " << op << " block " << block;
      ASSERT_EQ(dut.last_evicted(), ref_victim) << "op " << op;
      node_of[block] = dut.last_node();
      if (ref_victim != UINT64_MAX) node_of.erase(ref_victim);
    } else if (kind < 14) {  // coherence erase
      const bool ref_had = ref.erase(block);
      ASSERT_EQ(dut.erase(block), ref_had) << "op " << op;
      node_of.erase(block);
    } else if (kind < 15 || !clears) {  // known-node move of a resident block
      if (!node_of.empty()) {
        auto it = node_of.begin();
        std::advance(it, rng() % node_of.size());
        dut.touch_known(it->second);
        ref.retouch(it->first);
      }
    } else {  // occasional full reset
      dut.clear();
      ref.clear();
      node_of.clear();
    }
    ASSERT_EQ(dut.size(), ref.size()) << "op " << op;
    ASSERT_EQ(dut.contains(block), ref.contains(block)) << "op " << op;
  }
}

TEST(LruOracle, DenseKeysSmallCache) { run_stream(4, 16, 1, 1, 20000); }

TEST(LruOracle, SingleLine) { run_stream(1, 8, 1, 2, 5000); }

TEST(LruOracle, GrowAndTombstoneChurn) {
  // Key range >> lines: constant evict + erase + reinsert traffic keeps the
  // table crossing its load threshold with live tombstones.
  run_stream(64, 512, 1, 3, 40000);
}

TEST(LruOracle, PowerOfTwoStrides) {
  // Strided block ids collide maximally under masked identity hashing;
  // the Fibonacci-multiply bucket mix must keep probes short AND correct.
  for (std::uint64_t stride : {8u, 64u, 4096u}) {
    run_stream(32, 256, stride, 100 + stride, 20000);
  }
}

TEST(LruOracle, LargeGeometry) { run_stream(1024, 4096, 16, 9, 60000); }

TEST(LruOracle, StampRenumbering) {
  // No clear(), so recency stamps climb past the point where the victim
  // queue renumbers them (2^20), twice; a key range just above the line
  // count keeps most touches hits, with an eviction every few.
  run_stream(8, 10, 1, 4, 2'500'000, /*clears=*/false);
}

}  // namespace
}  // namespace obliv::hm
