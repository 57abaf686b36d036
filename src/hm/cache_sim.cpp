#include "hm/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/fault.hpp"

namespace obliv::hm {

LruCache::LruCache(std::size_t lines)
    : lines_(lines),
      map_(std::min<std::size_t>(lines, 32768)),
      queue_(kQueueSlack),
      queue_mask_(kQueueSlack - 1) {
  static_assert(std::has_single_bit(kQueueSlack));
  assert(lines_ > 0);
}

bool LruCache::touch(std::uint64_t block) {
  last_evicted_ = ~0ull;
  if (map_.needs_grow()) {
    // Rehash before probing so the insert slot stays valid, then refresh
    // the node backpointers the rehash invalidated.
    map_.rehash_now();
    map_.for_each(
        [&](std::size_t slot, std::uint32_t val) {
          nodes_[val].slot = static_cast<std::uint32_t>(slot);
        });
  }
  std::size_t slot;
  if (const std::uint32_t* v = map_.find_or_slot(block, slot)) {
    last_node_ = *v;
    touch_known(*v);
    return true;
  }
  std::uint32_t idx;
  if (map_.size() >= lines_) {
    // Evict the LRU block and reuse its node.  The victim's tombstone
    // cannot shorten our insert cluster, but `slot` stays valid: probes
    // step over tombstones, and `slot` precedes the cluster's first empty.
    idx = pop_victim();
    last_evicted_ = nodes_[idx].block;
    map_.erase_at(nodes_[idx].slot);
  } else if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  }
  nodes_[idx].block = block;
  nodes_[idx].slot =
      static_cast<std::uint32_t>(map_.insert_at(slot, block, idx));
  last_node_ = idx;
  stamp(idx);
  return false;
}

std::uint32_t LruCache::pop_victim() {
  for (;;) {
    assert(head_ < tail_);
    const Use u = queue_[head_++ & queue_mask_];
    if (nodes_[u.node].stamp == u.stamp) return u.node;
  }
}

void LruCache::compact() {
  // Branch-free filter: whether a use is current is a coin flip on
  // hit-heavy streams, so every use is copied and the write position
  // advances by the test.
  std::size_t w = head_;
  for (std::size_t i = head_; i < tail_; ++i) {
    const Use u = queue_[i & queue_mask_];
    queue_[w & queue_mask_] = u;
    w += nodes_[u.node].stamp == u.stamp ? 1 : 0;
  }
  tail_ = w;
  const std::size_t live = tail_ - head_;
  if (now_ >= kRenumberAt) {
    // Compaction runs at least once per ring size of pushes, so stamps
    // stay below kRenumberAt plus a ring size and cannot wrap.
    for (std::size_t i = head_; i < tail_; ++i) {
      Use& u = queue_[i & queue_mask_];
      u.stamp = static_cast<std::uint32_t>(i - head_ + 1);
      nodes_[u.node].stamp = u.stamp;
    }
    now_ = static_cast<std::uint32_t>(live);
  }
  // Keep at least half the ring free, so every compaction is followed by
  // at least size() + kQueueSlack pushes: amortized O(1) per use, and the
  // ring stays O(lines).
  const std::size_t want = 2 * live + kQueueSlack;
  if (queue_.size() < want) {
    std::vector<Use> ring(std::bit_ceil(want));
    for (std::size_t i = 0; i < live; ++i) {
      ring[i] = queue_[(head_ + i) & queue_mask_];
    }
    queue_.swap(ring);
    queue_mask_ = queue_.size() - 1;
    head_ = 0;
    tail_ = live;
  }
}

bool LruCache::erase(std::uint64_t block) {
  const std::uint32_t* v = map_.find(block);
  if (v == nullptr) return false;
  const std::uint32_t idx = *v;
  nodes_[idx].stamp = 0;  // its queued uses go stale
  free_.push_back(idx);
  map_.erase_at(nodes_[idx].slot);
  return true;
}

void LruCache::clear() {
  map_.clear();
  nodes_.clear();
  free_.clear();
  head_ = 0;
  tail_ = 0;
  now_ = 0;
  last_evicted_ = ~0ull;
}

CacheSim::CacheSim(MachineConfig cfg) : cfg_(std::move(cfg)) {
  // A MachineConfig that came through the validating ctor is fine, but a
  // default-constructed (empty) or aggregate-mutated one would make the
  // level-table loops below index out of bounds -- reject it here.
  cfg_.validate();
  fault::maybe_fail_alloc(fault::InjectSite::kAllocSim);
  const std::uint32_t L = cfg_.cache_levels();
  multicore_ = cfg_.cores() > 1;
  caches_.reserve(L);
  counters_.resize(L);
  cache_idx_.resize(L);
  shift_.resize(L);
  for (std::uint32_t lvl = 1; lvl <= L; ++lvl) {
    const std::size_t lines = std::max<std::uint64_t>(
        1, cfg_.capacity(lvl) / cfg_.block(lvl));
    std::vector<LruCache> row;
    row.reserve(cfg_.caches_at(lvl));
    for (std::uint32_t c = 0; c < cfg_.caches_at(lvl); ++c) {
      row.emplace_back(lines);
    }
    caches_.push_back(std::move(row));
    counters_[lvl - 1].resize(cfg_.caches_at(lvl));
    cache_idx_[lvl - 1].resize(cfg_.cores());
    for (std::uint32_t c = 0; c < cfg_.cores(); ++c) {
      cache_idx_[lvl - 1][c] = cfg_.cache_of(c, lvl);
    }
    const std::uint64_t b = cfg_.block(lvl);
    shift_[lvl - 1] = std::has_single_bit(b)
                          ? static_cast<std::uint8_t>(std::countr_zero(b))
                          : kNoShift;
  }
  // About four memo slots per L1 line, within [2^4, 2^14] per core.
  const std::uint64_t l1_lines = caches_[0][0].lines();
  while (memo_bits_ < kMaxMemoBits && (1ull << memo_bits_) < 4 * l1_lines) {
    ++memo_bits_;
  }
  memo_.assign(std::size_t{cfg_.cores()} << memo_bits_, MemoEntry{});
  run_memo_.assign(L, ~0ull);
  b1_ = cfg_.block(1);
  b1_shift_ = shift_[0];
  l1_ = caches_[0].data();
  counters1_ = counters_[0].data();
}

Result<CacheSim> CacheSim::make(MachineConfig cfg) noexcept {
  try {
    return CacheSim(std::move(cfg));
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed while building CacheSim tables");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

void CacheSim::coherence_write(std::uint32_t core, std::uint64_t blk1) {
  std::uint64_t& mask = sharers_.get(blk1);
  const std::uint64_t me = 1ull << core;
  std::uint64_t others = mask & ~me;
  if (others != 0) {
    ++pingpong_;
    if (tracer_ != nullptr) {
      tracer_->emit_attributed(obs::EventKind::kPingPong, 0, core, blk1,
                               others);
    }
    do {
      // p_1 == 1 (validated), so core c's L1 is l1_[c].
      const std::uint32_t c =
          static_cast<std::uint32_t>(std::countr_zero(others));
      others &= others - 1;
      if (l1_[c].erase(blk1)) ++counters1_[c].invalidations;
      memo_drop(c, blk1);
    } while (others != 0);
  }
  mask = me;
}

bool CacheSim::miss_shared(std::uint32_t core, std::uint64_t blk1, bool write,
                           std::uint64_t victim) {
  const std::uint64_t me = 1ull << core;
  if (victim != obs::kNoEviction) {
    // Keep the sharer table in sync with L1 contents.
    if (std::uint64_t* m = sharers_.find(victim)) *m &= ~me;
  }
  if (write) return true;  // the write path made `core` the sole sharer
  std::uint64_t& mask = sharers_.get(blk1);
  // Gaining a second sharer revokes the sole owner's memo exclusivity (its
  // next write must ping-pong us out).
  if (mask != 0 && mask != me && (mask & (mask - 1)) == 0) {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(mask));
    MemoEntry& e = memo_[memo_index(w, blk1)];
    if (e.block == blk1) e.exclusive = 0;
  }
  mask |= me;
  return mask == me;
}

void CacheSim::touch_block(std::uint32_t core, std::uint64_t blk1, bool write,
                           std::uint64_t* run_memo) {
  if (touch_private(core, blk1, write, [&] {
        if (multicore_) coherence_write(core, blk1);
      })) {
    return;
  }
  const std::uint64_t victim = l1_[core].last_evicted();
  if (tracer_ != nullptr) {
    tracer_->emit_attributed(obs::EventKind::kMiss, 1,
                             obs::cache_lane(1, core), blk1, victim);
  }
  // A read miss that leaves `core` the sole sharer makes the memo slot
  // touch_private just filled exclusive, so a following write to the block
  // skips the coherence probe; the revocation above keeps that exact.
  if (multicore_ && miss_shared(core, blk1, write, victim)) {
    memo_[memo_index(core, blk1)].exclusive = 1;
  }
  walk_upper(core, blk1, run_memo,
             [&](std::uint32_t lvl, std::uint32_t idx, std::uint64_t blk,
                 std::uint64_t evicted) {
               if (tracer_ != nullptr) {
                 tracer_->emit_attributed(
                     obs::EventKind::kMiss, static_cast<std::uint8_t>(lvl),
                     obs::cache_lane(lvl, idx), blk, evicted);
               }
             });
}

void CacheSim::access_blocks(std::uint32_t core, std::uint64_t first,
                             std::uint64_t last, bool write) {
  assert(core < cfg_.cores());
  if (first == last) {
    touch_block(core, first, write, nullptr);
    return;
  }
  std::fill(run_memo_.begin(), run_memo_.end(), ~0ull);
  for (std::uint64_t b = first; b <= last; ++b) {
    touch_block(core, b, write, run_memo_.data());
  }
}

const CacheCounters& CacheSim::counters(std::uint32_t level,
                                        std::uint32_t idx) const {
  return counters_.at(level - 1).at(idx);
}

std::uint64_t CacheSim::level_max_transfers(std::uint32_t level) const {
  std::uint64_t best = 0;
  for (const auto& c : counters_.at(level - 1)) {
    best = std::max(best, c.misses + c.evictions);
  }
  return best;
}

std::uint64_t CacheSim::level_max_misses(std::uint32_t level) const {
  std::uint64_t best = 0;
  for (const auto& c : counters_.at(level - 1)) {
    best = std::max(best, c.misses);
  }
  return best;
}

std::uint64_t CacheSim::level_total_misses(std::uint32_t level) const {
  std::uint64_t sum = 0;
  for (const auto& c : counters_.at(level - 1)) sum += c.misses;
  return sum;
}

void CacheSim::reset_stats() {
  for (auto& row : counters_) {
    std::fill(row.begin(), row.end(), CacheCounters{});
  }
  pingpong_ = 0;
  accesses_ = 0;
}

void CacheSim::clear() {
  reset_stats();
  for (auto& row : caches_) {
    for (auto& c : row) c.clear();
  }
  std::fill(memo_.begin(), memo_.end(), MemoEntry{});
  sharers_.clear();
}

}  // namespace obliv::hm
