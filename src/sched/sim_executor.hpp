// SimExecutor: the deterministic HM-model executor.
//
// This is the reference implementation of the paper's run-time scheduler.
// It executes an MO algorithm cooperatively on the calling thread while
// simulating:
//   * which core executes each piece of work (per the CGC / SB / CGC=>SB
//     anchoring rules of Section III),
//   * the resulting per-level cache misses (through hm::CacheSim), and
//   * work and span (critical path) of the schedule, from which parallel
//     steps on p cores follow by Brent's principle.
//
// Determinism is what makes the theorems checkable: two runs of the same
// algorithm on the same machine produce identical miss counts.
//
// Approximation note (documented in DESIGN.md): parallel siblings are
// *executed* sequentially in depth-first order while being *accounted* in
// parallel.  Under SB anchoring each task's working set fits its anchor
// cache, so its level-i misses are its compulsory input/output transfers,
// which DFS order reproduces; interleaving effects appear only below the
// anchor level and do not change the asymptotic shapes the benches verify.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "fault/status.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/psim.hpp"
#include "hm/trace.hpp"
#include "obs/trace.hpp"
#include "sched/hints.hpp"
#include "sched/metrics.hpp"
#include "util/fn_ref.hpp"

namespace obliv::sched {

template <class T>
class SimRef;
template <class T>
class SimBuf;

/// Scheduling-policy knobs, used by the ablation benches.
struct SimPolicy {
  /// When true (paper behaviour), CGC chunk boundaries are rounded to B_1
  /// block boundaries to avoid ping-ponging.
  bool respect_block_boundaries = true;
  /// When true, SB / CGC=>SB anchoring is replaced by the "proportionate
  /// slice" strategy the paper argues against in Section II: every task is
  /// assigned round-robin to an L1 cache (i.e. a core), so higher-level
  /// caches are shared only incidentally.
  bool slice_mode = false;
  /// When true, CGC=>SB anchors subtasks at the smallest *fitting* level
  /// only (t = i), ignoring the parallelism term j of Section III-C's
  /// t = max(i, j) rule.  With few subtasks this strands the cores below
  /// unused anchor caches (ablated in bench_sched_ablation).
  bool cgcsb_fit_only = false;
  /// Cache-simulation engine: serial oracle or the sharded replay engine
  /// (hm/psim.hpp).  kAuto resolves per run() against OBLIV_PSIM, else to
  /// serial; counters and traces are byte-identical either way.
  hm::PsimMode psim = hm::PsimMode::kAuto;
  /// Sharded engine epoch grain: buffered accesses that make the buffer
  /// flush-eligible at a sync point (0 = ShardedCacheSim::kDefaultEpochGrain;
  /// the mid-construct hard cap is kHardCapFactor times this).  Fuzzed by
  /// tests/test_psim_fuzz.cpp to randomize epoch boundaries.
  std::uint64_t psim_epoch_grain = 0;
};

/// The canonical trace record now lives in hm/trace.hpp (the hm layer's
/// replay engine consumes streams without depending on sched); re-exported
/// here so existing benches/tests keep compiling unchanged.
using TraceEntry = hm::TraceEntry;

class SimExecutor {
 public:
  /// Validating constructor (the embedded hm::CacheSim re-checks `cfg`);
  /// throws obliv::Error on a malformed machine.  Prefer make() on
  /// untrusted input.
  explicit SimExecutor(hm::MachineConfig cfg, SimPolicy policy = {});

  /// Non-throwing companion: kInvalidConfig/kUnsupported for bad machines,
  /// kResourceExhausted when simulator tables cannot be allocated
  /// (including injected fault::InjectSite::kAllocSim failures).
  static Result<SimExecutor> make(hm::MachineConfig cfg,
                                  SimPolicy policy = {}) noexcept;

  const hm::MachineConfig& config() const { return cfg_; }
  hm::CacheSim& cache_sim() { return cache_; }

  // ---- Storage -----------------------------------------------------------

  /// Allocates an instrumented buffer of `n` elements in the simulated
  /// address space (aligned to the largest block size).
  template <class T>
  SimBuf<T> make_buf(std::size_t n);

  /// Instrumented element-wise copy src -> dst (equal sizes): the batched
  /// equivalent of `for i: dst.store(i, src.load(i))`, with identical
  /// counters, work, and span.  Groups are split at every B_1 boundary of
  /// either stream, so each group touches one source and one destination
  /// block; the per-element loop alternates between exactly those two
  /// blocks, which collapses to the same install order and final recency
  /// order as the group's two batched calls (DESIGN.md, "Run batching").
  template <class T>
  void copy(SimRef<T> dst, SimRef<T> src);

  /// Words (8-byte units) occupied by one T in the simulated address space.
  template <class T>
  static constexpr std::uint64_t words_per() {
    return (sizeof(T) + 7) / 8;
  }

  // ---- Raw accounting hooks (called by SimRef) ----------------------------

  /// Records a memory access of `words` words at simulated address `addr`
  /// by the current core and charges one unit of work/span per word.
  /// Inline so the CacheSim memo fast path reaches into SimRef::load/store;
  /// the capture hooks (tracer histogram, trace recording, sharded-engine
  /// buffering) live out of line, which keeps this body small enough for
  /// the compiler to inline.
  /// A single batched call over `words` words is equivalent, in every
  /// observable counter, to per-element calls covering the same range:
  /// work/span charge `words` either way, and the cache walk collapses
  /// repeat touches of a B_1 block exactly (see hm/cache_sim.hpp).
  void access(std::uint64_t addr, std::uint32_t words, bool write) {
    if (trace_ != nullptr || psim_buf_ != nullptr ||
        tracer_ != nullptr) [[unlikely]] {
      access_hooked(addr, words, write);
      return;
    }
    cache_.access(ctx_.core, addr, words, write);
    tick(words);
  }

  /// Appends every subsequent access to `out` (nullptr stops recording).
  /// MachineConfig caps cores at 64, so the core always fits TraceEntry.
  void set_trace(std::vector<TraceEntry>* out) { trace_ = out; }

  /// Attaches an obs::Tracer (nullptr detaches): every hint dispatch,
  /// anchoring decision, and task begin/end is emitted as a typed event,
  /// cache misses are attributed to the anchored task (via
  /// hm::CacheSim::set_tracer), the tracer's clock becomes this executor's
  /// logical work counter (so event streams are deterministic and
  /// goldenable), and run() publishes RunMetrics plus scheduler counters
  /// into the tracer's CounterRegistry.  Export lanes are named after the
  /// machine (cores and caches).  The tracer must outlive the runs.
  void set_tracer(obs::Tracer* tracer);

  /// Charges `n` units of pure computation (no memory traffic).
  void tick(std::uint64_t n) {
    work_ += n;
    span_ += n;
  }

  // ---- Root entry ---------------------------------------------------------

  /// Runs `body` as the root task with the given space bound, anchored at
  /// the smallest cache level that fits it (or at the memory level), and
  /// returns the metrics of the run.  Resets counters first.
  RunMetrics run(std::uint64_t space_words, util::FnRef<void()> body);

  /// Non-throwing counterpart of run(): catches escaping exceptions
  /// (injected allocation faults, workload errors) and returns them as a
  /// typed Status -- kResourceExhausted for std::bad_alloc, the carried
  /// code for obliv::Error, kInternal otherwise.  On error the simulator's
  /// counters are whatever the partial run left; call run()/try_run()
  /// again to reset and re-measure.
  Result<RunMetrics> try_run(std::uint64_t space_words,
                             util::FnRef<void()> body) noexcept;

  /// Metrics of the last completed run().
  RunMetrics metrics() const;

  // ---- CGC (Section III-A) -------------------------------------------------

  /// Parallel for over [lo, hi) under the CGC hint.  `words_per_iter` is the
  /// number of contiguous words one iteration scans (used to round segment
  /// boundaries to B_1 blocks); `body(a, b)` processes iterations [a, b).
  void cgc_pfor(std::uint64_t lo, std::uint64_t hi,
                std::uint64_t words_per_iter,
                util::FnRef<void(std::uint64_t, std::uint64_t)> body);

  // ---- SB (Section III-B) ---------------------------------------------------

  /// Forks `tasks` in parallel under the SB hint.  Each task is anchored at
  /// the least-loaded cache at the smallest level that fits its space bound
  /// under the current shadow; tasks whose bound exceeds C_{i-1} queue at the
  /// current anchor itself and serialize.
  void sb_parallel(std::initializer_list<SbTask> tasks);

  /// Runs a single task sequentially but re-anchored per its space bound
  /// (used for the serial recursive calls of I-GEP's function A).
  void sb_seq(std::uint64_t space_words, util::FnRef<void()> body);

  // ---- CGC=>SB (Section III-C) ----------------------------------------------

  /// `count` equal-space subtasks, each touching `space_words` words;
  /// distributed evenly across the level-t caches under the current shadow,
  /// t = max(i, j) per Section III-C.  `body(k)` runs subtask k.
  void cgc_sb_pfor(std::uint64_t count, std::uint64_t space_words,
                   util::FnRef<void(std::uint64_t)> body);

  // ---- Introspection (used by tests) ---------------------------------------

  std::uint32_t current_core() const { return ctx_.core; }
  std::uint32_t current_anchor_level() const { return ctx_.anchor_level; }
  std::uint32_t current_anchor_index() const { return ctx_.anchor_idx; }
  std::uint64_t work() const { return work_; }
  std::uint64_t span() const { return span_; }

 private:
  struct Ctx {
    std::uint32_t anchor_level;  ///< 1..h; h == memory (whole machine)
    std::uint32_t anchor_idx;    ///< cache index at anchor_level (0 if memory)
    std::uint32_t core;          ///< core executing sequential code
  };

  std::uint32_t cores_under_ctx() const;
  std::uint32_t first_core_under_ctx() const;

  /// access() while a tracer, a trace recording or the sharded engine is
  /// attached.
  void access_hooked(std::uint64_t addr, std::uint32_t words, bool write);

  // ---- obs emission helpers (no-ops without an attached tracer) ----------

  /// Routes a scheduler event to the tracer -- directly in serial mode, or
  /// deferred at the current buffer position when the sharded engine is
  /// buffering, so the flush interleaves it exactly where live emission
  /// would have placed it.  Caller must have checked tracer_ != nullptr.
  void emit_sched(obs::EventKind kind, std::uint8_t detail, std::uint32_t tid,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    if (psim_buf_ != nullptr) {
      psim_->defer_sched_event(
          obs::Event{tracer_->now(), a, b, c, tid, kind, detail});
    } else {
      tracer_->emit(0, kind, detail, tid, a, b, c);
    }
  }

  /// Flushes the sharded engine's buffer at a shared-level sync point
  /// (construct end) once it has reached the epoch grain.
  void maybe_flush_psim() {
    if (psim_buf_ != nullptr && psim_buf_->size() >= psim_grain_) {
      psim_->flush();
    }
  }

  /// Records a hint dispatch (detail = static_cast<uint8_t>(Hint)).
  /// Histogram handles (hist_*) are resolved once per set_tracer();
  /// CounterRegistry::clear() zeroes histograms in place, so the cached
  /// pointers stay valid across Tracer::clear() between runs.
  void trace_hint(Hint hint, std::uint64_t a, std::uint64_t b) {
    if (tracer_ != nullptr) {
      switch (hint) {
        case Hint::kCgc: ++tally_.cgc; break;
        case Hint::kSb: ++tally_.sb; break;
        case Hint::kCgcSb: ++tally_.cgcsb; break;
      }
      emit_sched(obs::EventKind::kHintDispatch,
                 static_cast<std::uint8_t>(hint), ctx_.core, a, b,
                 next_task_id_ + 1);
    }
  }

  /// Records an anchoring decision for the task run_child will create next
  /// (task id next_task_id_ + 1 -- the sim is single-threaded, so the pair
  /// is adjacent and unambiguous in the stream).
  void trace_anchor(obs::AnchorReason reason, std::uint64_t space_words,
                    std::uint32_t level, std::uint32_t idx) {
    if (tracer_ != nullptr) {
      if (reason == obs::AnchorReason::kSbQueued) ++tally_.sb_queued;
      hist_anchor_space_->record(space_words);
      emit_sched(obs::EventKind::kAnchor, static_cast<std::uint8_t>(reason),
                 obs::cache_lane(level, idx), space_words, level,
                 next_task_id_ + 1);
    }
  }

  /// Number of level-`t` caches under the current anchor's shadow and the
  /// index of the first one.
  std::pair<std::uint32_t, std::uint32_t> caches_under_ctx(
      std::uint32_t t) const;
  /// Capacity of a level (memory level == +inf).
  std::uint64_t capacity_of(std::uint32_t level) const;

  /// Runs `fn` with context switched to (level, idx) and its first core.
  /// Returns the span consumed by fn (work accumulates globally).
  std::uint64_t run_child(std::uint32_t level, std::uint32_t idx,
                          util::FnRef<void()> fn, std::uint64_t span_base);

  hm::MachineConfig cfg_;
  SimPolicy policy_;
  hm::CacheSim cache_;
  // Sharded replay engine (hm/psim.hpp), created lazily on the first run()
  // that resolves to kSharded.  psim_buf_ is non-null exactly while such a
  // run is buffering; it aliases psim_->buffer(), which is stable across
  // flushes.
  std::unique_ptr<hm::ShardedCacheSim> psim_;
  std::vector<hm::PsimAccess>* psim_buf_ = nullptr;
  std::uint64_t psim_grain_ = 0;  ///< sync-point flush threshold (entries)
  std::uint64_t psim_cap_ = 0;    ///< mid-construct hard cap (entries)
  Ctx ctx_;
  std::uint64_t work_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t addr_top_ = 0;
  std::vector<TraceEntry>* trace_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  // Distribution metrics, registered by set_tracer() (null iff tracer_ is):
  // per-CGC-segment iteration grains and per-anchor space bounds.
  obs::Histogram* hist_cgc_grain_ = nullptr;
  obs::Histogram* hist_anchor_space_ = nullptr;
  obs::Histogram* hist_access_words_ = nullptr;
  std::uint64_t next_task_id_ = 0;  // task ids for obs attribution
  // Scheduler tallies published to the tracer's CounterRegistry at the end
  // of run(); plain integers so decision paths never do string lookups.
  struct SchedTally {
    std::uint64_t cgc = 0, sb = 0, cgcsb = 0, sb_queued = 0;
    std::vector<std::uint64_t> anchors_per_level;  // index level-1
  } tally_;
  std::uint32_t rr_counter_ = 0;  // round-robin cursor for slice mode
  // sb_parallel's (anchor cache key, running end time) entries, a stack
  // shared by nested SB constructs so a fork allocates nothing once warm.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sb_ends_;
  // cache_load_[level-1][idx]: accumulated work anchored at that cache,
  // used for the SB "least loaded" rule.
  std::vector<std::vector<std::uint64_t>> cache_load_;
};

/// Non-owning instrumented view of `n` elements of T.
///
/// All element access is explicit (`load` / `store`) so that both the
/// simulated and the native backends present the same interface to
/// algorithm templates.
template <class T>
class SimRef {
 public:
  using value_type = T;

  SimRef() = default;
  SimRef(SimExecutor* ex, T* data, std::uint64_t addr, std::size_t n)
      : ex_(ex), data_(data), addr_(addr), n_(n) {}

  T load(std::size_t i) const {
    assert(i < n_);
    ex_->access(addr_ + i * W, W, /*write=*/false);
    return data_[i];
  }

  void store(std::size_t i, const T& v) const {
    assert(i < n_);
    ex_->access(addr_ + i * W, W, /*write=*/true);
    data_[i] = v;
  }

  // Batched range accesses.  One simulator call covers the whole run, which
  // charges the same work/span and produces the same cache counters as
  // per-element calls over the range (hm::CacheSim::access_run), but pays
  // the call overhead once.  Use them where an algorithm touches
  // consecutive elements back-to-back with nothing in between.

  /// Reads elements [i, i + len) into `out`.
  void load_run(std::size_t i, std::size_t len, T* out) const {
    assert(i + len <= n_);
    if (len == 0) return;
    ex_->access(addr_ + i * W, static_cast<std::uint32_t>(len * W),
                /*write=*/false);
    std::copy(data_ + i, data_ + i + len, out);
  }

  /// Writes `src[0 .. len)` to elements [i, i + len).
  void store_run(std::size_t i, std::size_t len, const T* src) const {
    assert(i + len <= n_);
    if (len == 0) return;
    ex_->access(addr_ + i * W, static_cast<std::uint32_t>(len * W),
                /*write=*/true);
    std::copy(src, src + len, data_ + i);
  }

  /// Adjacent pair read -- the contraction-tree access pattern.
  std::pair<T, T> load2(std::size_t i) const {
    assert(i + 1 < n_);
    ex_->access(addr_ + i * W, 2 * W, /*write=*/false);
    return {data_[i], data_[i + 1]};
  }

  /// Read-modify-write without double-charging the address computation.
  template <class F>
  void update(std::size_t i, F&& f) const {
    assert(i < n_);
    ex_->access(addr_ + i * W, W, /*write=*/true);
    f(data_[i]);
  }

  SimRef slice(std::size_t off, std::size_t len) const {
    assert(off + len <= n_);
    return SimRef(ex_, data_ + off, addr_ + off * W, len);
  }

  std::size_t size() const { return n_; }
  std::uint64_t addr() const { return addr_; }
  /// Raw (un-instrumented) pointer, for test assertions only.
  T* raw() const { return data_; }

 private:
  static constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  SimExecutor* ex_ = nullptr;
  T* data_ = nullptr;
  std::uint64_t addr_ = 0;
  std::size_t n_ = 0;
};

/// Owning instrumented buffer.
template <class T>
class SimBuf {
 public:
  SimBuf() = default;
  SimBuf(SimExecutor* ex, std::uint64_t addr, std::size_t n)
      : ex_(ex), addr_(addr), v_(n) {}

  SimRef<T> ref() { return SimRef<T>(ex_, v_.data(), addr_, v_.size()); }
  std::size_t size() const { return v_.size(); }
  /// Raw storage, for initialization/checking outside the measured region.
  std::vector<T>& raw() { return v_; }
  const std::vector<T>& raw() const { return v_; }
  std::uint64_t addr() const { return addr_; }

 private:
  SimExecutor* ex_ = nullptr;
  std::uint64_t addr_ = 0;
  std::vector<T> v_;
};

template <class T>
SimBuf<T> SimExecutor::make_buf(std::size_t n) {
  fault::maybe_fail_alloc(fault::InjectSite::kAllocBuf);
  const std::uint64_t align =
      cfg_.block(cfg_.cache_levels());  // largest block size
  addr_top_ = (addr_top_ + align - 1) / align * align;
  const std::uint64_t addr = addr_top_;
  addr_top_ += n * words_per<T>();
  return SimBuf<T>(this, addr, n);
}

template <class T>
void SimExecutor::copy(SimRef<T> dst, SimRef<T> src) {
  assert(dst.size() == src.size());
  const std::uint64_t n = src.size();
  const std::uint64_t W = words_per<T>();
  const std::uint64_t b1 = cfg_.block(1);
  std::uint64_t i = 0;
  while (i < n) {
    const std::uint64_t sa = src.addr() + i * W;
    const std::uint64_t da = dst.addr() + i * W;
    // Elements whose first word stays inside the current B_1 block of the
    // respective stream (at least one, so progress is guaranteed even for
    // elements wider than a block).
    const std::uint64_t ks = (b1 - sa % b1 + W - 1) / W;
    const std::uint64_t kd = (b1 - da % b1 + W - 1) / W;
    const std::uint64_t k =
        std::max<std::uint64_t>(1, std::min({n - i, ks, kd}));
    access(sa, static_cast<std::uint32_t>(k * W), /*write=*/false);
    access(da, static_cast<std::uint32_t>(k * W), /*write=*/true);
    std::copy(src.raw() + i, src.raw() + i + k, dst.raw() + i);
    i += k;
  }
}

}  // namespace obliv::sched
