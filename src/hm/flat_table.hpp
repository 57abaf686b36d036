// Open-addressing hash tables for the cache simulator.
//
// Every table here is linear-probing over a power-of-two array of slots,
// bucketed by one Fibonacci multiply of the 64-bit block id (see
// bucket_of), with no allocation per entry.  None of them has tombstones:
//
//   * SharerTable   -- block -> 64-bit mask of the L1s holding the block,
//     CacheSim's coherence state.  An entry is deleted by backward shift
//     (erase_shift) the moment its mask drops to 0, so the table holds
//     exactly the blocks some L1 holds: at most the sum of the L1 line
//     counts.  LruCache (hm/cache_sim.hpp) deletes the same way.
//   * FlatTable<V>  -- insert-only map with fingerprint control bytes,
//     used by the sharded replay engine's per-epoch analysis (hm/psim.hpp)
//     and nothing else.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace obliv::hm {

/// Bucket index for `key` in a table of `mask + 1` (power-of-two) slots:
/// one Fibonacci multiply, bucket from the top bits.  A single multiply is
/// the latency sweet spot for the probe's critical path: a full finalizer
/// (splitmix64) costs ~3x in dependent ops for no measurable collision
/// win, while identity indexing (key & mask) collapses under the
/// power-of-two-strided block ids the benches generate (per-core
/// partitions and matrix tiles alias into the same buckets, degrading
/// probes into long clusters).
inline std::size_t bucket_of(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
}

/// 7-bit fingerprint from a different bit window of the same multiply.
inline std::uint8_t fingerprint_of(std::uint64_t key) {
  return static_cast<std::uint8_t>((key * 0x9e3779b97f4a7c15ull) >> 57);
}

inline std::size_t pow2_at_least(std::size_t n) {
  std::size_t c = 16;
  while (c < n) c <<= 1;
  return c;
}

/// Backward-shift deletion from a linear-probing table of `mask + 1`
/// slots: empties slot `hole` and moves each later entry of its cluster
/// whose probe path passes the hole back into it, so every entry stays
/// reachable from its bucket without crossing an empty slot.  `Slot` has
/// a `key` member and an `empty()` test, and `Slot{}` is empty.
template <class Slot>
void erase_shift(Slot* slots, std::size_t mask, std::size_t hole) {
  for (std::size_t j = (hole + 1) & mask; !slots[j].empty();
       j = (j + 1) & mask) {
    // The entry at j may fill the hole iff the hole lies on its probe
    // path [bucket, j), i.e. it is no farther back than the bucket.
    if (((j - bucket_of(slots[j].key, mask)) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = Slot{};
}

/// First empty slot on `key`'s probe path (the table holds no `key`).
template <class Slot>
std::size_t empty_slot(const Slot* slots, std::size_t mask,
                       std::uint64_t key) {
  std::size_t i = bucket_of(key, mask);
  while (!slots[i].empty()) i = (i + 1) & mask;
  return i;
}

/// Doubles a table of `slots` (`mask` follows), reinserting every entry.
template <class Slot>
void double_table(std::vector<Slot>& slots, std::size_t& mask) {
  std::vector<Slot> old(slots.size() * 2);
  old.swap(slots);
  mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (!s.empty()) slots[empty_slot(slots.data(), mask, s.key)] = s;
  }
}

/// Block id -> nonzero 64-bit L1 sharer mask.  A slot is empty iff its
/// mask is 0, and an entry whose last sharer leaves (clear_bits) is
/// deleted at once, so size() is the number of blocks some L1 holds and
/// the table stays at most half full.
class SharerTable {
 public:
  SharerTable() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

  /// Sharer mask of `blk` (0 when no L1 holds it).
  std::uint64_t mask(std::uint64_t blk) const {
    for (std::size_t i = bucket_of(blk, mask_);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.empty()) return 0;
      if (s.key == blk) return s.bits;
    }
  }

  /// Sets `blk`'s mask to `bits` (nonzero); returns the old mask.
  std::uint64_t exchange(std::uint64_t blk, std::uint64_t bits) {
    assert(bits != 0);
    std::uint64_t& m = find_or_insert(blk);
    const std::uint64_t old = m;
    m = bits;
    return old;
  }

  /// Adds `bits` (nonzero) to `blk`'s mask; returns the old mask.
  std::uint64_t fetch_or(std::uint64_t blk, std::uint64_t bits) {
    assert(bits != 0);
    std::uint64_t& m = find_or_insert(blk);
    const std::uint64_t old = m;
    m |= bits;
    return old;
  }

  /// Removes `bits` from `blk`'s mask, deleting the entry when it drops
  /// to 0.  A block with no entry is left alone.
  void clear_bits(std::uint64_t blk, std::uint64_t bits) {
    for (std::size_t i = bucket_of(blk, mask_);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.empty()) return;
      if (s.key == blk) {
        s.bits &= ~bits;
        if (s.bits == 0) {
          erase_shift(slots_.data(), mask_, i);
          --size_;
        }
        return;
      }
    }
  }

  /// Number of blocks with a nonzero mask.
  std::size_t size() const { return size_; }

  void clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t bits = 0;  ///< 0 = empty slot
    bool empty() const { return bits == 0; }
  };
  static constexpr std::size_t kMinSlots = 256;

  /// Mask of `blk`, inserted as 0 if absent: the caller must leave it
  /// nonzero, or the slot reads as empty.
  std::uint64_t& find_or_insert(std::uint64_t blk) {
    std::size_t i = bucket_of(blk, mask_);
    for (; !slots_[i].empty(); i = (i + 1) & mask_) {
      if (slots_[i].key == blk) return slots_[i].bits;
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      double_table(slots_, mask_);
      i = empty_slot(slots_.data(), mask_, blk);
    }
    ++size_;
    slots_[i].key = blk;
    return slots_[i].bits;
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

/// Insert-only linear-probing flat hash map from uint64 keys to V, with
/// one control byte (empty or a 7-bit key fingerprint) per slot.  V must
/// be trivially copyable.
template <class V>
class FlatTable {
  static constexpr std::uint8_t kEmpty = 0x80;

 public:
  explicit FlatTable(std::size_t expected = 0) {
    init(pow2_at_least(expected * 2));
  }

  std::size_t size() const { return size_; }

  V* find(std::uint64_t key) {
    std::size_t i = bucket_of(key, mask_);
    const std::uint8_t fp = fingerprint_of(key);
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == fp && slots_[i].key == key) return &slots_[i].val;
      if (c == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  const V* find(std::uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// Single-pass lookup: on a hit returns the value pointer; on a miss
  /// returns nullptr and sets `slot` to the position a subsequent
  /// insert_at(slot, key, v) must use.  Call rehash_now() first when
  /// needs_grow().
  V* find_or_slot(std::uint64_t key, std::size_t& slot) {
    std::size_t i = bucket_of(key, mask_);
    const std::uint8_t fp = fingerprint_of(key);
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == fp && slots_[i].key == key) return &slots_[i].val;
      if (c == kEmpty) {
        slot = i;
        return nullptr;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `key` (absent) at `slot` obtained from find_or_slot().
  void insert_at(std::size_t slot, std::uint64_t key, V v) {
    ctrl_[slot] = fingerprint_of(key);
    slots_[slot].key = key;
    slots_[slot].val = v;
    ++size_;
  }

  /// True when the next insert would fill the table past 7/8.
  bool needs_grow() const { return (size_ + 1) * 8 >= capacity() * 7; }

  /// Doubles the table.  Invalidates every slot position.
  void rehash_now() {
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    init(old_ctrl.size() * 2);
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == kEmpty) continue;
      std::size_t j = bucket_of(old_slots[i].key, mask_);
      while (ctrl_[j] != kEmpty) j = (j + 1) & mask_;
      insert_at(j, old_slots[i].key, old_slots[i].val);
    }
  }

  void clear() {
    std::memset(ctrl_.data(), kEmpty, ctrl_.size());
    size_ = 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::uint64_t key;
    V val;
  };

  void init(std::size_t cap) {
    ctrl_.assign(cap, kEmpty);
    slots_.resize(cap);
    mask_ = cap - 1;
    size_ = 0;
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace obliv::hm
