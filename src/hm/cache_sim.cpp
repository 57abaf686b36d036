#include "hm/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fault/fault.hpp"

namespace obliv::hm {

LruCache::LruCache(std::size_t lines)
    : lines_(lines),
      nodes_(1, Node{kNoBlock, 0, 0}),
      slots_(pow2_at_least(4 * std::min(lines, kMaxInitialLines))),
      mask_(slots_.size() - 1) {
  assert(lines_ > 0 && lines_ < 0xffffffffu);
}

bool LruCache::touch(std::uint64_t block) {
  assert(block != kNoBlock);
  last_evicted_ = kNoBlock;
  std::size_t i = bucket_of(block, mask_);
  for (; !slots_[i].empty(); i = (i + 1) & mask_) {
    if (slots_[i].key == block) {
      last_node_ = slots_[i].node;
      touch_known(last_node_);
      return true;
    }
  }
  if (size_ == lines_) {
    // Full: the victim's node takes the new block.  The new entry goes
    // into the empty slot the probe ended at before the victim's entry is
    // deleted (the table has room for one more), so no second probe is
    // needed; the deletion's backward shift may move the new entry.
    const std::uint32_t v = nodes_[0].prev;
    last_evicted_ = nodes_[v].block;
    nodes_[v].block = block;
    slots_[i] = Slot{block, v};
    touch_known(v);
    erase_key(last_evicted_);
    last_node_ = v;
    return false;
  }
  if ((size_ + 1) * 4 > slots_.size()) {
    // Only a cache of more than kMaxInitialLines lines gets here.
    double_table(slots_, mask_);
    i = empty_slot(slots_.data(), mask_, block);
  }
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  }
  nodes_[idx].block = block;
  slots_[i] = Slot{block, idx};
  push_front(idx);
  ++size_;
  last_node_ = idx;
  return false;
}

void LruCache::erase_key(std::uint64_t block) {
  std::size_t i = bucket_of(block, mask_);
  while (slots_[i].key != block) {
    assert(!slots_[i].empty());
    i = (i + 1) & mask_;
  }
  erase_shift(slots_.data(), mask_, i);
}

bool LruCache::erase(std::uint64_t block) {
  for (std::size_t i = bucket_of(block, mask_); !slots_[i].empty();
       i = (i + 1) & mask_) {
    if (slots_[i].key == block) {
      const std::uint32_t idx = slots_[i].node;
      unlink(idx);
      free_.push_back(idx);
      erase_shift(slots_.data(), mask_, i);
      --size_;
      return true;
    }
  }
  return false;
}

void LruCache::clear() {
  if (size_ > 0) std::fill(slots_.begin(), slots_.end(), Slot{});
  nodes_.resize(1);
  nodes_[0] = Node{kNoBlock, 0, 0};
  free_.clear();
  size_ = 0;
  last_evicted_ = kNoBlock;
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
  const std::uint64_t me = 1ull << core;
  std::uint64_t others = sharers_.exchange(blk1, me) & ~me;
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
}

bool CacheSim::miss_shared(std::uint32_t core, std::uint64_t blk1, bool write,
                           std::uint64_t victim) {
  const std::uint64_t me = 1ull << core;
  // Keep the sharer table in sync with L1 contents.
  if (victim != obs::kNoEviction) sharers_.clear_bits(victim, me);
  if (write) return true;  // the write path made `core` the sole sharer
  const std::uint64_t old = sharers_.fetch_or(blk1, me);
  // Gaining a second sharer revokes the sole owner's memo exclusivity (its
  // next write must ping-pong us out).
  if (old != 0 && old != me && (old & (old - 1)) == 0) {
    const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(old));
    MemoEntry& e = memo_[memo_index(w, blk1)];
    if (e.block == blk1) e.exclusive = 0;
  }
  return (old | me) == me;
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
