// Multi-level cache simulator for the HM model.
//
// Cache complexity in the paper is defined as the maximum number of block
// transfers into and out of any single level-i cache (Section II).  This
// simulator measures exactly that: every memory access by a core walks the
// hierarchy of fully-associative LRU caches on the core's path (its private
// L1, the L2 it shares, ...), counting a miss at each level where the block
// is absent.  Fully-associative LRU is the standard "ideal cache" of the
// cache-oblivious literature [1], which the HM analyses assume.
//
// The simulator also models the ping-ponging discussed in Section III: the
// coherence granularity is B_1, and a write to a block resident in another
// core's L1 invalidates it there and counts a ping-pong event.  The CGC
// scheduler's B_1-respecting chunking exists precisely to avoid these events
// (ablated in bench_sched_ablation).
//
// Implementation: this is the hot path of every Table II / Theorem bench,
// so it is built for throughput while keeping every observable counter
// bit-identical to the reference semantics above (enforced by
// tests/test_golden_counters.cpp and, against an independent naive model,
// tests/test_cache_sim_oracle.cpp):
//
//   * LruCache keys blocks through an open-addressing flat table
//     (hm/flat_table.hpp) into stable nodes.  Recency is a last-use stamp
//     per node; a lazy FIFO of (node, stamp) pairs finds the victim by
//     popping pairs until one still matches its node's stamp -- exact
//     fully-associative LRU in amortized O(1), ~one probe per touch.
//   * A per-core block memo in front of the L1 maps a B_1 block to its L1
//     node and an exclusivity bit.  Entries are dropped when their block
//     leaves the L1, so a memo hit is an exact L1 hit and resolves inline
//     with one compare.  See DESIGN.md section 5c for why both are exact.
//   * Coherence is O(1) per access: the sharer set is a 64-bit mask in an
//     epoch-tagged flat table (MachineConfig rejects > 64 cores), writers
//     the memo knows to be the sole sharer skip the invalidation probe
//     entirely, and invalidations iterate set bits, not all cores.
//   * access_run() walks a whole run of B_1 blocks per call, memoising the
//     last block touched per upper level within the run, so batched range
//     accesses (SimRef::load_run / store_run) pay one hierarchy walk per
//     *distinct* upper-level block instead of one probe per B_1 block.
//
// The sharded replay engine (hm/psim.hpp) runs the same private-path and
// upper-walk routines (touch_private, miss_shared, walk_upper), so the two
// engines cannot drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "hm/config.hpp"
#include "hm/flat_table.hpp"
#include "obs/trace.hpp"

namespace obliv::hm {

/// Fully-associative LRU cache over abstract block ids.
class LruCache {
 public:
  explicit LruCache(std::size_t lines);

  /// Accesses `block`; returns true on hit.  On a miss the block is
  /// installed, evicting the least-recently-used block if full.
  /// `evicted` receives the victim block id (valid when the return of
  /// `evicted_valid()` is true after the call).
  bool touch(std::uint64_t block);

  /// Recency update for a block whose node index is already known (from
  /// last_node() at install/hit time) -- no hash probe.  Touching the most
  /// recently used block again changes nothing.
  void touch_known(std::uint32_t idx) {
    if (nodes_[idx].stamp != now_) stamp(idx);
  }

  /// Node index of the block hit or installed by the most recent touch().
  std::uint32_t last_node() const { return last_node_; }

  /// Removes `block` if present (coherence invalidation); returns true if
  /// it was present.
  bool erase(std::uint64_t block);

  bool contains(std::uint64_t block) const {
    return map_.find(block) != nullptr;
  }

  /// Block id evicted by the most recent touch(), or obs::kNoEviction if
  /// none (the same sentinel flows into kMiss.b unchanged, which is what
  /// lets the trace analyzer count evictions without a private protocol).
  std::uint64_t last_evicted() const { return last_evicted_; }

  void clear();

  std::size_t size() const { return map_.size(); }
  std::size_t lines() const { return lines_; }

 private:
  /// `stamp` is the node's last use (larger = more recent; 0 = free).
  struct Node {
    std::uint64_t block;
    std::uint32_t stamp;
    std::uint32_t slot;  ///< backpointer into map_ for O(1) erase
  };
  /// One use of `node`; stale once the node is used again or freed.
  struct Use {
    std::uint32_t node;
    std::uint32_t stamp;
  };
  /// The victim queue is a ring of at least 2 * size() + kQueueSlack uses.
  static constexpr std::size_t kQueueSlack = 64;
  static constexpr std::uint32_t kRenumberAt = 1u << 20;

  void stamp(std::uint32_t idx) {
    if (tail_ - head_ > queue_mask_) compact();
    nodes_[idx].stamp = ++now_;
    queue_[tail_++ & queue_mask_] = Use{idx, now_};
  }

  /// Pops stale uses off the queue front until one is current: that node
  /// is the least recently used.  Only called when the cache is full.
  std::uint32_t pop_victim();

  /// Called when the ring is full: drops every stale use and grows the
  /// ring if less than half of it is then free.  Once stamps pass
  /// kRenumberAt it also renumbers the current uses 1..size() in queue
  /// order, so stamps never outgrow 32 bits.
  void compact();

  std::size_t lines_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  FlatTable<std::uint32_t> map_;
  // Ring of uses in stamp order: positions [head_, tail_), each stored at
  // queue_[pos & queue_mask_] (the size is a power of two).  Every live
  // node's latest use is in the ring, and no other use there is current.
  std::vector<Use> queue_;
  std::size_t queue_mask_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::uint32_t now_ = 0;
  std::uint32_t last_node_ = 0;
  std::uint64_t last_evicted_ = ~0ull;
};

/// Per-cache transfer counters.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< blocks transferred *into* the cache
  std::uint64_t evictions = 0;    ///< blocks transferred *out of* the cache
  std::uint64_t invalidations = 0;  ///< coherence-induced removals (L1 only)
};

/// The whole-hierarchy simulator.
class CacheSim {
 public:
  /// Validating constructor; re-checks `cfg` (a default-constructed or
  /// hand-mutated MachineConfig would otherwise index empty level tables)
  /// and throws obliv::Error on violation.  Prefer make() on untrusted
  /// input.
  explicit CacheSim(MachineConfig cfg);

  /// Non-throwing companion: validates the config and builds the simulator,
  /// returning kInvalidConfig/kUnsupported for bad machines and
  /// kResourceExhausted when table allocation fails (including injected
  /// failures at fault::InjectSite::kAllocSim).
  static Result<CacheSim> make(MachineConfig cfg) noexcept;

  // l1_ and counters1_ point into caches_[0] and counters_[0]; moves keep
  // vector heap buffers so the pointers survive, but copies would leave
  // them dangling.
  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;
  CacheSim(CacheSim&&) = default;
  CacheSim& operator=(CacheSim&&) = default;

  /// Simulates core `core` touching `words` consecutive words starting at
  /// word address `addr` (read if !write).  Equivalent to access_run().
  void access(std::uint32_t core, std::uint64_t addr, std::uint32_t words,
              bool write) {
    access_run(core, addr, words, write);
  }

  /// Batched entry point: simulates the whole run of B_1 blocks covered by
  /// [addr, addr + words) in one call.  Observable counters are identical
  /// to per-word access() calls over the same range collapsed at B_1
  /// granularity (each covered block is touched exactly once per call).
  ///
  /// The body here is the memo fast path, inlined into callers: a
  /// re-touch of a block resident in the core's L1 (for a write, one the
  /// core holds exclusively) is one compare, a recency stamp and a counter
  /// increment.  Everything else calls the out-of-line slow path.
  void access_run(std::uint32_t core, std::uint64_t addr, std::uint32_t words,
                  bool write) {
    accesses_ += words > 0 ? words : 1;
    const std::uint64_t end = addr + (words > 1 ? words - 1 : 0);
    std::uint64_t first, last;
    if (b1_shift_ != kNoShift) {
      first = addr >> b1_shift_;
      last = end >> b1_shift_;
    } else {
      first = addr / b1_;
      last = end / b1_;
    }
    if (first == last) {
      const MemoEntry& m = memo_[memo_index(core, first)];
      if (m.block == first && (!write || m.exclusive)) {
        l1_[core].touch_known(m.node);
        ++counters1_[core].hits;
        return;
      }
    }
    access_blocks(core, first, last, write);
  }

  const MachineConfig& config() const { return cfg_; }

  /// Counters of cache `idx` at 1-based `level`.
  const CacheCounters& counters(std::uint32_t level, std::uint32_t idx) const;

  /// The paper's per-level cache complexity: max over the q_i caches at
  /// `level` of (misses + evictions).
  std::uint64_t level_max_transfers(std::uint32_t level) const;

  /// Max over caches at `level` of misses only (block reads).
  std::uint64_t level_max_misses(std::uint32_t level) const;

  /// Sum of misses over all caches at `level`.
  std::uint64_t level_total_misses(std::uint32_t level) const;

  /// Number of coherence ping-pong events (write hitting a B_1 block held
  /// by other L1s).
  std::uint64_t pingpong_events() const { return pingpong_; }

  /// Total simulated word accesses (the workload-invariant throughput
  /// numerator: a batched access_run over `words` words counts `words`,
  /// exactly like per-word calls over the same range would).
  std::uint64_t total_accesses() const { return accesses_; }

  /// Attaches an event tracer (nullptr detaches).  Misses, evictions and
  /// ping-pongs are then emitted as obs events attributed to the tracer's
  /// current task context; the memo/L1 hit fast paths never emit, so the
  /// traced slowdown is bounded by the miss rate.  Emission sits behind
  /// `if constexpr (obs::kTracingCompiledIn)`, so an OBLIV_TRACING=OFF
  /// build pays nothing.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Zeroes all counters but keeps cache contents (warm restart).
  void reset_stats();

  /// Empties every cache and zeroes counters (cold restart).
  void clear();

 private:
  // The sharded replay engine (hm/psim.hpp) runs touch_private() on worker
  // threads and replays the shared-level effects through miss_shared() and
  // walk_upper(), so it needs access to them.
  friend class ShardedCacheSim;

  /// One slot of a core's block memo: B_1 block `block` is resident in the
  /// core's L1 at node `node`.  `exclusive` means the sharer mask is known
  /// to be exactly this core, so even a write needs no coherence probe.
  /// Slots are cleared when their block leaves the L1 (eviction or
  /// invalidation), so a memo hit is always an exact L1 hit.  Slots are
  /// direct-mapped by a Fibonacci hash of the block id: masking the low
  /// bits would alias the power-of-two row strides of the matrix kernels.
  struct MemoEntry {
    std::uint64_t block = ~0ull;
    std::uint32_t node = 0;
    std::uint32_t exclusive = 0;
  };

  static constexpr std::uint8_t kMaxMemoBits = 14;

  std::size_t memo_index(std::uint32_t core, std::uint64_t blk) const {
    return (std::size_t{core} << memo_bits_) |
           static_cast<std::size_t>((blk * 0x9e3779b97f4a7c15ull) >>
                                    (64 - memo_bits_));
  }

  /// Out-of-line slow path of access_run(): touches blocks [first, last].
  void access_blocks(std::uint32_t core, std::uint64_t first,
                     std::uint64_t last, bool write);

  /// One B_1-block touch: private path, then on an L1 miss the sharer
  /// bookkeeping and the upper-level walk.  `run_memo` (one slot per
  /// level, ~0 = none) carries the last block touched per upper level
  /// within the current access_run() call; pass nullptr for single-block
  /// accesses.
  void touch_block(std::uint32_t core, std::uint64_t blk1, bool write,
                   std::uint64_t* run_memo);

  /// The private half of a B_1-block touch: memo probe, L1 touch or
  /// install, L1 counters and memo upkeep.  It reads and writes only
  /// `core`'s memo, L1 and L1 counters.  `on_write()` runs where a write
  /// must go through the coherence protocol (other sharers may exist).
  /// Returns true on an L1 hit; after a miss l1_[core].last_evicted() is
  /// the victim.
  template <class OnWrite>
  bool touch_private(std::uint32_t core, std::uint64_t blk1, bool write,
                     OnWrite&& on_write) {
    MemoEntry& m = memo_[memo_index(core, blk1)];
    LruCache& l1 = l1_[core];
    CacheCounters& c1 = counters1_[core];
    if (m.block == blk1) {
      if (write && !m.exclusive) {
        on_write();
        m.exclusive = 1;
      }
      l1.touch_known(m.node);
      ++c1.hits;
      return true;
    }
    if (write) on_write();
    const bool hit = l1.touch(blk1);
    // After a write the sharer mask is exactly {core}; after a read other
    // sharers may exist, so exclusivity is only assumed when it is free
    // (touch_block grants it once miss_shared finds no other sharer).
    m = MemoEntry{blk1, l1.last_node(), write || !multicore_};
    if (hit) {
      ++c1.hits;
      return true;
    }
    ++c1.misses;
    if (l1.last_evicted() != obs::kNoEviction) {
      ++c1.evictions;
      memo_drop(core, l1.last_evicted());
    }
    return false;
  }

  /// Sharer bookkeeping after `core`'s L1 missed on `blk1` and evicted
  /// `victim` (obs::kNoEviction = none).  Multicore machines only.
  /// Returns true when `core` is now the block's sole sharer.
  bool miss_shared(std::uint32_t core, std::uint64_t blk1, bool write,
                   std::uint64_t victim);

  /// Walks the levels above `core`'s L1 for `blk1` until one hits,
  /// counting at each; `on_miss(level, idx, block, evicted)` runs at every
  /// miss.  `run_memo` as for touch_block().
  template <class OnMiss>
  void walk_upper(std::uint32_t core, std::uint64_t blk1,
                  std::uint64_t* run_memo, OnMiss&& on_miss) {
    const std::uint64_t word0 = blk1 * b1_;
    const std::uint32_t L = cfg_.cache_levels();
    for (std::uint32_t lvl = 2; lvl <= L; ++lvl) {
      const std::uint64_t blk = block_of(word0, lvl);
      const std::uint32_t idx = cache_idx_[lvl - 1][core];
      CacheCounters& ctr = counters_[lvl - 1][idx];
      if (run_memo != nullptr) {
        if (run_memo[lvl - 1] == blk) {
          // Touched earlier in this run with nothing since at this level:
          // still present and most recently used, so a hit that changes
          // no recency.
          ++ctr.hits;
          return;
        }
        run_memo[lvl - 1] = blk;
      }
      LruCache& cache = caches_[lvl - 1][idx];
      if (cache.touch(blk)) {
        ++ctr.hits;
        return;
      }
      ++ctr.misses;
      on_miss(lvl, idx, blk, cache.last_evicted());
      if (cache.last_evicted() != obs::kNoEviction) ++ctr.evictions;
    }
  }

  /// Write-path coherence: invalidate other sharers (counting one
  /// ping-pong if any existed) and make `core` the sole sharer.
  void coherence_write(std::uint32_t core, std::uint64_t blk1);

  /// Clears `core`'s memo slot for `blk1` if it holds it (the block left
  /// the L1).
  void memo_drop(std::uint32_t core, std::uint64_t blk1) {
    MemoEntry& m = memo_[memo_index(core, blk1)];
    if (m.block == blk1) m.block = ~0ull;
  }

  /// Block id of `word` at `level` (1-based).
  std::uint64_t block_of(std::uint64_t word, std::uint32_t level) const {
    const std::uint8_t s = shift_[level - 1];
    return s != kNoShift ? word >> s : word / cfg_.block(level);
  }

  static constexpr std::uint8_t kNoShift = 0xff;

  MachineConfig cfg_;
  bool multicore_ = false;
  // Hot copies for the inline fast path: B_1 and its log2 (or kNoShift),
  // log2 of the per-core memo size, and the raw rows of L1 caches and L1
  // counters (caches_[0].data(), counters_[0].data(); vectors never resize
  // after construction, and moves keep heap buffers, so the pointers stay
  // valid -- copying is deleted above to keep that true).
  std::uint64_t b1_ = 1;
  std::uint8_t b1_shift_ = 0;
  std::uint8_t memo_bits_ = 4;
  LruCache* l1_ = nullptr;
  CacheCounters* counters1_ = nullptr;
  // caches_[level-1][idx]
  std::vector<std::vector<LruCache>> caches_;
  std::vector<std::vector<CacheCounters>> counters_;
  // cache_idx_[level-1][core]: cfg_.cache_of(core, level), precomputed.
  std::vector<std::vector<std::uint32_t>> cache_idx_;
  // log2(B_i) when B_i is a power of two, else kNoShift.
  std::vector<std::uint8_t> shift_;
  // memo_[memo_index(core, blk)]: each core's 2^memo_bits_ memo slots.
  std::vector<MemoEntry> memo_;
  // Scratch for access_run(): last block touched per level in the current
  // run (index level-1; ~0 = none).  Member to avoid per-call allocation.
  std::vector<std::uint64_t> run_memo_;
  SharerTable sharers_;
  std::uint64_t pingpong_ = 0;
  std::uint64_t accesses_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace obliv::hm
