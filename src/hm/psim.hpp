// Sharded parallel cache simulation with an epoch-ordered merge (PR 6).
//
// The HM model's own structure makes the simulator parallelizable without
// giving up bit-exact determinism: between shared-level synchronization
// points, distinct private caches evolve independently.  The serial
// SimExecutor executes parallel siblings sequentially in DFS order, so its
// access stream is a concatenation of contiguous per-core runs; within any
// contiguous chunk of that stream ("epoch"), each core's subsequence only
// touches the core's own block memo and L1 cache -- unless a coherence
// interaction couples two cores.  The engine exploits exactly that:
//
//   1. Accesses are buffered instead of simulated; the buffer is cut into
//      epochs at construct boundaries (SB/CGC anchoring returns, NO
//      superstep-like sync points) or at a size cap.  ANY contiguous
//      partition is correct -- the epoch analysis below decides per epoch
//      whether the parallel path is exact, and falls back otherwise.
//   2. Epoch analysis (serial, one pass): build writer/reader core masks
//      per covered B_1 block.  The epoch is conflict-FREE iff (a) no block
//      is written by one core and touched by another within the epoch, and
//      (b) no block written this epoch has stale sharers from *before* the
//      epoch in other L1s (a serial run would invalidate them mid-epoch,
//      perturbing L1 occupancy).  Conflict-free epochs provably produce
//      zero ping-pongs and zero invalidations.
//   3. Shard replay (parallel): one task per active core on a
//      work-stealing pool replays the core's subsequence through
//      CacheSim::touch_private -- the serial engine's own private path,
//      which reads and writes ONLY the core's block memo, L1 LruCache and
//      L1 counters (disjoint per core, so there are no data races).
//      Shared-level effects (sharer-mask updates, upper-level walks, miss
//      events) are not applied; instead each L1 miss / coherence-relevant
//      write is recorded as a queue entry keyed by the access's epoch
//      sequence number.
//   4. Epoch-ordered merge (serial): walk the epoch's accesses in original
//      trace order -- which IS the canonical (epoch, core, seq) order,
//      since each core's queue drains monotonically -- and apply each
//      queued event through CacheSim::miss_shared and CacheSim::walk_upper,
//      the routines the serial simulator itself runs, including the
//      run-memoised upper walk and deferred obs-event emission.
//
// Shard outputs depend only on the private start state and the core's own
// subsequence, never on thread scheduling, so counters AND obs traces are
// byte-identical to the serial oracle (tests/test_psim_fuzz.cpp gates
// this; `OBLIV_PSIM=serial` keeps the oracle selectable at runtime).
//
// With 1 worker the engine degrades each epoch to pure serial fallback and
// skips the analysis pass entirely, so the single-thread overhead is just
// the buffering (guardrail: bench_simrate --psim-off-check, budget <= 5%).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hm/cache_sim.hpp"
#include "hm/flat_table.hpp"
#include "hm/trace.hpp"
#include "obs/trace.hpp"

namespace obliv::sched {
class WorkStealingPool;
}

namespace obliv::hm {

/// The sharded replay engine.  Wraps a CacheSim (which stays the single
/// source of truth for all counters and cache state) and simulates
/// buffered access streams epoch by epoch.  Not reentrant; one engine per
/// simulator.
class ShardedCacheSim {
 public:
  /// `threads` = 0 picks psim_threads_from_env(); the count is capped at
  /// the simulated machine's core count (one shard per simulated core).
  explicit ShardedCacheSim(CacheSim& sim, unsigned threads = 0);
  ~ShardedCacheSim();
  ShardedCacheSim(const ShardedCacheSim&) = delete;
  ShardedCacheSim& operator=(const ShardedCacheSim&) = delete;

  unsigned threads() const { return threads_; }

  /// Default flush-eligibility threshold at a sync point, and the hard cap
  /// after which the buffer is flushed mid-construct (bounds memory; any
  /// cut point is correct, see the header comment).
  static constexpr std::size_t kDefaultEpochGrain = 4096;
  static constexpr std::size_t kHardCapFactor = 64;

  // ---- Buffered-access API (SimExecutor integration) ----------------------

  /// The access buffer the executor appends to.  Stable across flushes.
  std::vector<PsimAccess>& buffer() { return buf_; }

  /// Resets per-run state and captures the obs context: `run_clock` is the
  /// executor's logical clock the tracer must be re-pointed at after any
  /// fallback replay (nullptr when replaying outside an executor).
  void begin_run(obs::Tracer* tracer, const std::uint64_t* run_clock);

  /// Defers a fully-formed scheduler event (timestamp already stamped) to
  /// be interleaved at its recorded position in the access stream: an
  /// event captured when the buffer held k accesses is emitted before the
  /// k-th access's own cache events, reproducing live emission order.
  void defer_sched_event(const obs::Event& ev);

  /// Simulates everything buffered so far as one epoch and empties the
  /// buffer.  Counters and (if a tracer is attached) trace events are
  /// byte-identical to having called sim.access() per entry.
  void flush();

  // ---- Raw replay API (benches / tests) -----------------------------------

  /// Replays a captured trace, cutting it into epochs of `epoch_entries`
  /// accesses.  Does not clear the simulator first (mirrors a plain
  /// access() replay loop).
  void replay(const TraceEntry* entries, std::size_t n,
              std::size_t epoch_entries = kDefaultEpochGrain *
                                          kHardCapFactor);

  // ---- Introspection ------------------------------------------------------

  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t fallback_epochs() const { return fallback_epochs_; }
  /// True when OBLIV_PSIM_TRACE=1 enabled the opt-in per-epoch obs lane.
  bool epoch_trace_enabled() const { return epoch_trace_; }

 private:
  /// Shared-level effect recorded by a shard, keyed by the epoch sequence
  /// number of the access that produced it.  kEvWriteTouch = the serial
  /// path would call coherence_write here (no other sharers exist in a
  /// conflict-free epoch, so the merge just sets the mask).  kEvMiss = an
  /// L1 miss installing `blk` and evicting `victim` (~0 = none); the merge
  /// replays the sharer bookkeeping and the upper-level walk.
  struct ShardEvent {
    std::uint64_t blk;
    std::uint64_t victim;
    std::uint32_t seq;
    std::uint8_t kind;
    std::uint8_t write;
  };
  static constexpr std::uint8_t kEvWriteTouch = 0;
  static constexpr std::uint8_t kEvMiss = 1;

  struct Shard {
    std::vector<std::uint32_t> seqs;    ///< this core's entries, in order
    std::vector<ShardEvent> events;     ///< produced in seq order
    std::uint64_t accesses = 0;         ///< local word-access tally
    std::size_t cursor = 0;             ///< merge progress
  };

  struct TouchMasks {
    std::uint64_t w = 0;  ///< cores that wrote the block this epoch
    std::uint64_t r = 0;  ///< cores that read the block this epoch
  };

  struct DeferredSched {
    std::uint64_t seq;
    obs::Event ev;
  };

  void block_range(const PsimAccess& e, std::uint64_t& first,
                   std::uint64_t& last) const {
    const std::uint64_t end = e.addr + (e.words > 1 ? e.words - 1 : 0);
    if (b1_shift_ != 0xff) {
      first = e.addr >> b1_shift_;
      last = end >> b1_shift_;
    } else {
      first = e.addr / b1_;
      last = end / b1_;
    }
  }

  void bucket_epoch();
  bool epoch_conflict_free();
  void run_shards();
  void run_shard(std::uint32_t core);
  void shard_touch(std::uint32_t core, std::uint64_t blk, bool write,
                   std::uint32_t seq, Shard& sh);
  void merge_epoch();
  void fallback_epoch();
  void drain_sched(std::uint64_t upto);
  void emit_epoch_mark(bool fallback);
  void reset_epoch_state();

  CacheSim& sim_;
  unsigned threads_;
  std::uint64_t b1_;
  std::uint8_t b1_shift_;
  bool epoch_trace_ = false;  // OBLIV_PSIM_TRACE=1: per-epoch lane events
  std::unique_ptr<sched::WorkStealingPool> pool_;

  std::vector<PsimAccess> buf_;
  std::vector<DeferredSched> sched_events_;
  std::size_t sched_cursor_ = 0;
  std::vector<Shard> shards_;           // indexed by simulated core
  std::vector<std::uint32_t> active_;   // cores with entries this epoch
  FlatTable<TouchMasks> touched_;       // per-epoch block -> masks
  std::vector<std::uint64_t> written_;  // blocks with a writer this epoch
  std::vector<std::uint64_t> memo_;     // upper-level run memo scratch

  obs::Tracer* tracer_ = nullptr;
  const std::uint64_t* run_clock_ = nullptr;
  std::uint64_t epochs_ = 0;
  std::uint64_t fallback_epochs_ = 0;
};

}  // namespace obliv::hm
