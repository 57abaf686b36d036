#include "hm/psim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <functional>

#include "sched/native_executor.hpp"

namespace obliv::hm {

ShardedCacheSim::ShardedCacheSim(CacheSim& sim, unsigned threads)
    : sim_(sim),
      threads_(threads == 0 ? psim_threads_from_env() : threads),
      b1_(sim.b1_),
      b1_shift_(sim.b1_shift_) {
  // One shard per simulated core; extra host threads cannot help.
  threads_ = std::min<unsigned>(
      std::max(1u, threads_), std::max(1u, sim_.config().cores()));
  if (threads_ > 1) {
    pool_ = std::make_unique<sched::WorkStealingPool>(threads_);
  }
  shards_.resize(sim_.config().cores());
  if (const char* env = std::getenv("OBLIV_PSIM_TRACE")) {
    epoch_trace_ = env[0] != '\0' && env[0] != '0';
  }
}

ShardedCacheSim::~ShardedCacheSim() = default;

void ShardedCacheSim::begin_run(obs::Tracer* tracer,
                                const std::uint64_t* run_clock) {
  tracer_ = tracer;
  run_clock_ = run_clock;
  buf_.clear();
  sched_events_.clear();
  sched_cursor_ = 0;
  epochs_ = 0;
  fallback_epochs_ = 0;
  reset_epoch_state();
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr && epoch_trace_) {
      tracer_->name_lane(obs::kPsimEpochLane, "psim epochs");
    }
  }
}

void ShardedCacheSim::defer_sched_event(const obs::Event& ev) {
  sched_events_.push_back(DeferredSched{buf_.size(), ev});
}

void ShardedCacheSim::reset_epoch_state() {
  for (Shard& sh : shards_) {
    sh.seqs.clear();
    sh.events.clear();
    sh.accesses = 0;
    sh.cursor = 0;
  }
  active_.clear();
  written_.clear();
}

void ShardedCacheSim::drain_sched(std::uint64_t upto) {
  if constexpr (obs::kTracingCompiledIn) {
    while (sched_cursor_ < sched_events_.size() &&
           sched_events_[sched_cursor_].seq <= upto) {
      tracer_->emit_prestamped(0, sched_events_[sched_cursor_++].ev);
    }
  }
}

void ShardedCacheSim::flush() {
  const std::size_t n = buf_.size();
  if (n > 0) {
    ++epochs_;
    // A 1-worker engine replays serially without even analyzing: the merge
    // machinery cannot win without concurrency, and skipping the analysis
    // and bucketing passes is what keeps the single-thread overhead inside
    // the <= 5% --psim-off-check budget.  Bucketing is also skipped for
    // conflicted epochs: the conflict check walks buf_ directly, so the
    // per-core seq lists are only needed once the parallel path is chosen.
    const bool parallel_ok =
        threads_ > 1 && sim_.multicore_ && epoch_conflict_free();
    if (parallel_ok) {
      bucket_epoch();
      run_shards();
      merge_epoch();
    } else {
      ++fallback_epochs_;
      fallback_epoch();
    }
    emit_epoch_mark(!parallel_ok);
  }
  drain_sched(n);  // events recorded after the last access
  buf_.clear();
  sched_events_.clear();
  sched_cursor_ = 0;
  reset_epoch_state();
}

void ShardedCacheSim::replay(const TraceEntry* entries, std::size_t n,
                             std::size_t epoch_entries) {
  if (epoch_entries == 0) epoch_entries = 1;
  if ((threads_ <= 1 || !sim_.multicore_) && tracer_ == nullptr) {
    // Degenerate engine (1 worker, or a machine with no private caches to
    // shard): every epoch would fall back anyway, so stream straight
    // through the serial simulator without buffering at all.  This
    // pass-through is the path bench_simrate --psim-off-check pins to the
    // <= 5% budget, and what keeps an explicit kSharded request cheap on
    // 1-core hosts.
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEntry& t = entries[i];
      sim_.access(t.core, t.addr, t.words, t.write != 0);
    }
    const std::uint64_t chunks = (n + epoch_entries - 1) / epoch_entries;
    epochs_ += chunks;
    fallback_epochs_ += chunks;
    return;
  }
  for (std::size_t off = 0; off < n; off += epoch_entries) {
    const std::size_t len = std::min(epoch_entries, n - off);
    buf_.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      const TraceEntry& t = entries[off + i];
      buf_.push_back(PsimAccess{t.addr, t.words, t.core, t.write, 0, 0});
    }
    flush();
  }
}

void ShardedCacheSim::bucket_epoch() {
  for (std::uint32_t i = 0; i < buf_.size(); ++i) {
    Shard& sh = shards_[buf_[i].core];
    if (sh.seqs.empty()) active_.push_back(buf_[i].core);
    sh.seqs.push_back(i);
  }
}

bool ShardedCacheSim::epoch_conflict_free() {
  touched_.clear();
  written_.clear();
  for (const PsimAccess& e : buf_) {
    std::uint64_t first, last;
    block_range(e, first, last);
    const std::uint64_t me = 1ull << e.core;
    for (std::uint64_t b = first; b <= last; ++b) {
      if (touched_.needs_grow()) touched_.rehash_now();
      std::size_t slot;
      TouchMasks* m = touched_.find_or_slot(b, slot);
      if (m == nullptr) {
        TouchMasks fresh;
        (e.write ? fresh.w : fresh.r) = me;
        touched_.insert_at(slot, b, fresh);
        if (e.write) written_.push_back(b);
        continue;
      }
      if (e.write) {
        if (m->w == 0) written_.push_back(b);
        m->w |= me;
      } else {
        m->r |= me;
      }
      // Condition 1: a written block touched by more than one core this
      // epoch would order-couple the shards.
      const std::uint64_t t = m->w | m->r;
      if (m->w != 0 && (t & (t - 1)) != 0) return false;
    }
  }
  // Condition 2: a block written this epoch that other L1s still share
  // from before the epoch would be invalidated mid-epoch by the serial
  // simulator, perturbing those L1s' occupancy.  (This also guarantees
  // conflict-free epochs produce zero ping-pongs/invalidations: every
  // write's sharer mask is a subset of {writer} at write time.)
  for (std::uint64_t b : written_) {
    const TouchMasks* m = touched_.find(b);
    if (const std::uint64_t* s = sim_.sharers_.find(b)) {
      if ((*s & ~m->w) != 0) return false;
    }
  }
  return true;
}

void ShardedCacheSim::run_shards() {
  if (active_.size() == 1) {
    run_shard(active_[0]);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(active_.size());
  for (std::uint32_t core : active_) {
    tasks.push_back([this, core] { run_shard(core); });
  }
  pool_->run_all(std::move(tasks));
}

void ShardedCacheSim::run_shard(std::uint32_t core) {
  Shard& sh = shards_[core];
  for (std::uint32_t seq : sh.seqs) {
    const PsimAccess& e = buf_[seq];
    sh.accesses += e.words > 0 ? e.words : 1;
    std::uint64_t first, last;
    block_range(e, first, last);
    for (std::uint64_t b = first; b <= last; ++b) {
      shard_touch(core, b, e.write != 0, seq, sh);
    }
  }
}

// CacheSim's own private path, with every shared-level side effect turned
// into a ShardEvent.  A write that needs the coherence protocol would call
// coherence_write in a serial run; condition 2 guarantees no other
// sharers, so its only effect is mask = {core}, applied at merge.  The
// victim's sharer-mask bit clears at merge too (kEvMiss).
void ShardedCacheSim::shard_touch(std::uint32_t core, std::uint64_t blk,
                                  bool write, std::uint32_t seq, Shard& sh) {
  const bool hit = sim_.touch_private(core, blk, write, [&] {
    sh.events.push_back(ShardEvent{blk, ~0ull, seq, kEvWriteTouch, 1});
  });
  if (!hit) {
    sh.events.push_back(ShardEvent{blk, sim_.l1_[core].last_evicted(), seq,
                                   kEvMiss, static_cast<std::uint8_t>(write)});
  }
}

void ShardedCacheSim::merge_epoch() {
  const std::uint32_t L = sim_.cfg_.cache_levels();
  memo_.assign(L, ~0ull);
  for (std::uint32_t core : active_) {
    sim_.accesses_ += shards_[core].accesses;
  }
  const bool tracing = obs::kTracingCompiledIn && tracer_ != nullptr;
  for (std::size_t k = 0; k < buf_.size(); ++k) {
    drain_sched(k);
    const PsimAccess& e = buf_[k];
    Shard& sh = shards_[e.core];
    if (sh.cursor >= sh.events.size() || sh.events[sh.cursor].seq != k) {
      continue;  // entry k stayed entirely inside the private caches
    }
    std::uint64_t first, last;
    block_range(e, first, last);
    std::uint64_t* memo = nullptr;
    if (first != last) {
      // Serial resets its run memo at the top of every multi-block
      // access_blocks call; single-block accesses pass nullptr.
      std::fill(memo_.begin(), memo_.end(), ~0ull);
      memo = memo_.data();
    }
    const std::uint64_t me = 1ull << e.core;
    while (sh.cursor < sh.events.size() && sh.events[sh.cursor].seq == k) {
      const ShardEvent& ev = sh.events[sh.cursor++];
      if (ev.kind == kEvWriteTouch) {
        // coherence_write with provably no other sharers: mask = {core},
        // no ping-pong, no invalidation.
        std::uint64_t& mask = sim_.sharers_.get(ev.blk);
        assert((mask & ~me) == 0);
        mask = me;
        continue;
      }
      if (tracing) {
        tracer_->emit_prestamped(
            0, obs::Event{e.ts, ev.blk, ev.victim, e.task,
                          obs::cache_lane(1, e.core), obs::EventKind::kMiss,
                          1});
      }
      // Gaining a second sharer revokes the sole owner's memo exclusivity.
      // Mutating another core's memo here is safe: shards have joined, and
      // within this epoch no shard write consults that stale exclusive bit
      // (it would be a condition-1 conflict).  Unlike the serial path, the
      // merge never *grants* exclusivity: the shard has already run past
      // this access, so its memo may hold a later state of the block.
      // Exclusivity only saves coherence probes; it never changes a count.
      sim_.miss_shared(e.core, ev.blk, ev.write != 0, ev.victim);
      sim_.walk_upper(
          e.core, ev.blk, memo,
          [&](std::uint32_t lvl, std::uint32_t idx, std::uint64_t b,
              std::uint64_t evicted) {
            if (tracing) {
              tracer_->emit_prestamped(
                  0, obs::Event{e.ts, b, evicted, e.task,
                                obs::cache_lane(lvl, idx),
                                obs::EventKind::kMiss,
                                static_cast<std::uint8_t>(lvl)});
            }
          });
    }
  }
}

void ShardedCacheSim::fallback_epoch() {
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ != nullptr) {
      // Replay through the oracle with the tracer's clock pointed at each
      // entry's captured timestamp and task context, so the emitted events
      // are byte-identical to live emission; restore afterwards.
      const std::uint64_t saved_task = tracer_->current_task();
      const std::uint32_t saved_lvl = tracer_->current_anchor_level();
      const std::uint32_t saved_idx = tracer_->current_anchor_index();
      std::uint64_t tmp_ts = 0;
      tracer_->set_logical_clock(&tmp_ts);
      for (std::size_t k = 0; k < buf_.size(); ++k) {
        drain_sched(k);
        const PsimAccess& e = buf_[k];
        tmp_ts = e.ts;
        tracer_->set_task(e.task, saved_lvl, saved_idx);
        sim_.access(e.core, e.addr, e.words, e.write != 0);
      }
      tracer_->set_logical_clock(run_clock_);
      tracer_->set_task(saved_task, saved_lvl, saved_idx);
      return;
    }
  }
  for (const PsimAccess& e : buf_) {
    sim_.access(e.core, e.addr, e.words, e.write != 0);
  }
}

void ShardedCacheSim::emit_epoch_mark(bool fallback) {
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer_ == nullptr || !epoch_trace_) return;
    // active_ is only populated on the parallel path now; recount from the
    // buffer so fallback epochs report their core count too (this pass
    // only runs with the opt-in OBLIV_PSIM_TRACE lane enabled).
    std::uint64_t cores = 0;
    for (const PsimAccess& e : buf_) cores |= 1ull << e.core;
    const std::uint64_t ts = buf_.empty() ? 0 : buf_.back().ts;
    tracer_->emit_prestamped(
        0, obs::Event{ts, epochs_ - 1, buf_.size(), fallback ? 1ull : 0ull,
                      obs::kPsimEpochLane, obs::EventKind::kEpoch,
                      static_cast<std::uint8_t>(std::popcount(cores))});
  }
}

}  // namespace obliv::hm
