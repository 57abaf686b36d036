// obs: structured tracing + metrics for all three execution layers.
//
// The paper's contribution is *where* the scheduler anchors CGC / SB /
// CGC=>SB tasks and *which* cache level absorbs each miss; RunMetrics only
// reports end-of-run aggregates.  This subsystem records the individual
// decisions as typed events:
//
//   * NativeExecutor / WorkStealingPool: task spawn / steal / complete and
//     deque depth per worker (src/sched/native_executor.*);
//   * SimExecutor: hint dispatches and anchoring decisions -- which cache a
//     task was anchored at and under which rule (src/sched/sim_executor.*);
//   * hm::CacheSim: per-level miss / eviction / ping-pong events attributed
//     to the task anchored when they happened (src/hm/cache_sim.*);
//   * no::NoMachine: superstep closes with their communication volume.
//
// Events land in fixed-capacity per-worker ring buffers (flight-recorder
// style: single producer per ring, oldest events overwritten, total/drop
// counts kept) and export to Chrome trace_event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.  A CounterRegistry holds
// named aggregate counters (it subsumes sched/metrics.hpp's RunMetrics --
// see metrics_to_counters) and exports as Chrome "C" events.
//
// Determinism: on the simulated layers the Tracer's clock is the executor's
// logical work counter and every ring has exactly one producer, so two runs
// of the same workload produce byte-identical exports
// (tests/test_trace_golden.cpp).  On the native layer timestamps come from
// steady_clock and are inherently non-deterministic.
//
// Cost: with no tracer attached (the default) every emission site pays one
// pointer compare; bench_wallclock --trace measures the attached-tracer
// overhead (recorded in EXPERIMENTS.md, budget <= 5%).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace obliv::obs {

enum class EventKind : std::uint8_t {
  kTaskSpawn = 0,   ///< native fork: a=task id, b=deque depth after push
  kTaskSteal,       ///< native steal: a=task id, b=victim worker
  kTaskComplete,    ///< native completion: a=task id
  kHintDispatch,    ///< sim: detail=Hint, a=range length / task count
  kAnchor,          ///< sim anchoring decision: detail=AnchorReason,
                    ///< a=space words, b=anchor level, c=task id
  kTaskBegin,       ///< sim run_child enter: a=task id, b=level, c=parent id
  kTaskEnd,         ///< sim run_child exit: a=task id, b=span consumed
  kMiss,            ///< cache miss: detail=level, a=block, b=evicted block
                    ///< (kNoEviction = none), c=anchored task id
  kPingPong,        ///< coherence invalidation: a=block, c=anchored task id
  kSuperstep,       ///< NO superstep close: a=index, b=words, c=fold-0 h
  kEpoch,           ///< psim epoch close (opt-in via OBLIV_PSIM_TRACE=1):
                    ///< a=epoch index, b=buffered accesses, c=1 if the
                    ///< epoch fell back to serial replay; detail=cores
                    ///< active in the epoch
  kJobAdmit,        ///< serve admission: a=job seq, b=space est words,
                    ///< c=total admitted words after; detail=Family
  kJobBegin,        ///< serve job body start on a worker: a=job seq,
                    ///< b=queue wait ns; detail=Family
  kJobEnd,          ///< serve job body end: a=job seq, b=run ns,
                    ///< c=ErrorCode of the result; detail=Family
  kJobCancel,       ///< serve job poisoned mid-run (cancel or deadline):
                    ///< a=job seq, b=poison-to-completion latency ns,
                    ///< c=CancelToken::Reason; detail=Family
  kJobShed,         ///< serve admission shed under overload: a=job seq
                    ///< (0: never assigned), b=queue-wait p99 ns at the
                    ///< shed decision, c=retry-after hint ms; detail=Family
};

/// Sentinel for kMiss.b: the miss installed into a free line, nothing was
/// evicted.  Shared by the cache simulator (producer) and the trace
/// analyzer (consumer) so eviction attribution never drifts.
inline constexpr std::uint64_t kNoEviction = ~std::uint64_t(0);

/// Why an anchoring decision picked its cache (detail byte of kAnchor).
enum class AnchorReason : std::uint8_t {
  kSbFit = 0,       ///< SB: least-loaded cache at smallest fitting level
  kSbQueued,        ///< SB: no cache below the parent fits; queued at anchor
  kSlice,           ///< ablation: round-robin "proportionate slice"
  kCgcSegment,      ///< CGC: contiguous segment anchored at a core's L1
  kCgcSbSpread,     ///< CGC=>SB: subtask spread over level-t caches
};

/// One trace record.  Meaning of a/b/c depends on `kind` (see EventKind).
struct Event {
  std::uint64_t ts = 0;  ///< logical work units (sim) or ns (native)
  std::uint64_t a = 0, b = 0, c = 0;
  std::uint32_t tid = 0;  ///< export lane: worker, core, or cache id
  EventKind kind = EventKind::kTaskSpawn;
  std::uint8_t detail = 0;
};

/// Fixed-capacity single-producer event ring (flight recorder).  The owner
/// worker is the only writer; readers (the exporter) run after the workload
/// has quiesced, so no synchronization is needed or provided.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = kDefaultCapacity)
      : buf_(capacity == 0 ? 1 : capacity) {}

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  void push(const Event& e) {
    buf_[pushed_ % buf_.size()] = e;
    ++pushed_;
  }

  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t dropped() const {
    return pushed_ > buf_.size() ? pushed_ - buf_.size() : 0;
  }
  std::size_t retained() const {
    return pushed_ < buf_.size() ? static_cast<std::size_t>(pushed_)
                                 : buf_.size();
  }
  void clear() { pushed_ = 0; }

  /// Visits retained events oldest-to-newest.
  template <class F>
  void for_each(F&& f) const {
    const std::uint64_t n = retained();
    const std::uint64_t start = pushed_ - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      f(buf_[(start + i) % buf_.size()]);
    }
  }

 private:
  std::vector<Event> buf_;
  std::uint64_t pushed_ = 0;
};

/// Named aggregate counters with deterministic (insertion) order.  Subsumes
/// sched/metrics.hpp: metrics_to_counters() maps a RunMetrics into named
/// entries, and the executors add scheduler counters RunMetrics never had
/// (hint dispatch counts, anchor histogram per level, steals, ...).
///
/// Besides plain counters the registry holds named log-scale Histograms
/// (obs/histogram.hpp) for distribution-shaped metrics: task grain sizes,
/// steal latencies, superstep volumes.  Histograms live in a deque so the
/// Histogram& handed back by histogram() stays valid across later
/// registrations (emission sites cache the pointer per run).
class CounterRegistry {
 public:
  std::uint64_t& counter(std::string_view name) {
    for (auto& [n, v] : items_) {
      if (n == name) return v;
    }
    items_.emplace_back(std::string(name), 0);
    return items_.back().second;
  }

  void add(std::string_view name, std::uint64_t delta) {
    counter(name) += delta;
  }
  void set(std::string_view name, std::uint64_t value) {
    counter(name) = value;
  }
  std::uint64_t value(std::string_view name) const {
    for (const auto& [n, v] : items_) {
      if (n == name) return v;
    }
    return 0;
  }

  /// Returns (registering on first use) the histogram named `name`.  The
  /// reference is stable for the registry's lifetime; clear() invalidates.
  Histogram& histogram(std::string_view name) {
    for (auto& h : hists_) {
      if (h.name == name) return h.hist;
    }
    hists_.emplace_back(std::string(name));
    return hists_.back().hist;
  }
  const Histogram* find_histogram(std::string_view name) const {
    for (const auto& h : hists_) {
      if (h.name == name) return &h.hist;
    }
    return nullptr;
  }

  /// Drops all plain counters and zeroes histograms *in place*:
  /// registrations (and therefore Histogram& handles cached by emission
  /// sites) stay valid across clear(), mirroring how lane names persist on
  /// Tracer::clear().
  void clear() {
    items_.clear();
    for (auto& h : hists_) h.hist.clear();
  }
  std::size_t size() const { return items_.size(); }
  std::size_t histogram_count() const { return hists_.size(); }

  template <class F>
  void for_each(F&& f) const {
    for (const auto& [n, v] : items_) f(n, v);
  }

  /// Visits histograms in registration order: f(name, histogram).
  template <class F>
  void for_each_histogram(F&& f) const {
    for (const auto& h : hists_) f(h.name, h.hist);
  }

 private:
  struct NamedHist {
    explicit NamedHist(std::string n) : name(std::move(n)) {}
    std::string name;
    Histogram hist;
  };

  std::vector<std::pair<std::string, std::uint64_t>> items_;
  // deque: Histogram is non-movable (atomics) and handed out by reference.
  std::deque<NamedHist> hists_;
};

/// The per-run trace collector: one ring per producer (sim layers use ring
/// 0; the native pool uses one ring per worker), a clock source, the
/// current-task attribution context, and the counter registry.
///
/// Attach with the owning executor's set_tracer(); nullptr detaches.  The
/// executor keeps ownership of nothing -- the Tracer must outlive the runs
/// it records.
class Tracer {
 public:
  explicit Tracer(std::uint32_t rings = 1,
                  std::size_t capacity = TraceRing::kDefaultCapacity)
      : epoch_(std::chrono::steady_clock::now()) {
    rings_.reserve(rings == 0 ? 1 : rings);
    for (std::uint32_t i = 0; i < (rings == 0 ? 1 : rings); ++i) {
      rings_.emplace_back(capacity);
    }
  }

  // ---- Clock --------------------------------------------------------------

  /// Points the clock at a monotone logical counter (the sim executor's
  /// work counter) for deterministic timestamps; nullptr reverts to
  /// steady_clock nanoseconds since construction.
  void set_logical_clock(const std::uint64_t* counter) { clock_ = counter; }

  std::uint64_t now() const {
    if (clock_ != nullptr) return *clock_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // ---- Attribution context (simulated layers) -----------------------------

  /// Current task + anchor, stamped onto kMiss / kPingPong events so cache
  /// traffic is attributable to the scheduling decision that caused it.
  void set_task(std::uint64_t task_id, std::uint32_t anchor_level,
                std::uint32_t anchor_idx) {
    task_id_ = task_id;
    anchor_level_ = anchor_level;
    anchor_idx_ = anchor_idx;
  }
  std::uint64_t current_task() const { return task_id_; }
  std::uint32_t current_anchor_level() const { return anchor_level_; }
  std::uint32_t current_anchor_index() const { return anchor_idx_; }

  // ---- Emission -----------------------------------------------------------

  /// Suppresses event recording while keeping the tracer attached (counters
  /// and histograms still accumulate).  This is the "metrics-only" mode the
  /// `bench_wallclock --hist-off-check` guardrail measures: histogram sites
  /// fire, ring traffic does not.
  void set_events_enabled(bool enabled) { events_enabled_ = enabled; }
  bool events_enabled() const { return events_enabled_; }

  /// Appends an event to `ring` (must be owned by the calling thread).
  void emit(std::uint32_t ring, EventKind kind, std::uint8_t detail,
            std::uint32_t tid, std::uint64_t a, std::uint64_t b,
            std::uint64_t c) {
    if (!events_enabled_) return;
    Event e;
    e.ts = now();
    e.a = a;
    e.b = b;
    e.c = c;
    e.tid = tid;
    e.kind = kind;
    e.detail = detail;
    rings_[ring].push(e);
  }

  /// Cache-layer convenience: stamps the current task id into `c`.
  void emit_attributed(EventKind kind, std::uint8_t detail, std::uint32_t tid,
                       std::uint64_t a, std::uint64_t b) {
    emit(0, kind, detail, tid, a, b, task_id_);
  }

  /// Deferred-emission entry point (hm/psim.hpp): appends a fully-formed
  /// event -- timestamp and attribution already stamped at capture time --
  /// so replay that happens after the fact can reproduce the exact stream
  /// a live emitter would have produced.
  void emit_prestamped(std::uint32_t ring, const Event& e) {
    if (!events_enabled_) return;
    rings_[ring].push(e);
  }

  // ---- Export lanes -------------------------------------------------------

  /// Registers a human-readable name for an export lane (Chrome tid); the
  /// exporter writes them as thread_name metadata events.
  void name_lane(std::uint32_t tid, std::string name) {
    for (auto& [t, n] : lane_names_) {
      if (t == tid) {
        n = std::move(name);
        return;
      }
    }
    lane_names_.emplace_back(tid, std::move(name));
  }

  // ---- Access -------------------------------------------------------------

  std::uint32_t ring_count() const {
    return static_cast<std::uint32_t>(rings_.size());
  }
  const TraceRing& ring(std::uint32_t i) const { return rings_[i]; }
  TraceRing& ring(std::uint32_t i) { return rings_[i]; }

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

  const std::vector<std::pair<std::uint32_t, std::string>>& lane_names()
      const {
    return lane_names_;
  }

  /// Total events ever pushed / overwritten across all rings.
  std::uint64_t events_pushed() const {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r.pushed();
    return n;
  }
  std::uint64_t events_dropped() const {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r.dropped();
    return n;
  }

  /// Empties every ring and the counter registry (lane names persist).
  void clear() {
    for (auto& r : rings_) r.clear();
    counters_.clear();
  }

 private:
  std::vector<TraceRing> rings_;
  CounterRegistry counters_;
  std::vector<std::pair<std::uint32_t, std::string>> lane_names_;
  const std::uint64_t* clock_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t task_id_ = 0;
  std::uint32_t anchor_level_ = 0;
  std::uint32_t anchor_idx_ = 0;
  bool events_enabled_ = true;
};

/// Export-lane (Chrome tid) convention shared by the emitters: cores use
/// their own index (0..63); the cache at (level, idx) uses 100*level + idx
/// (idx < 64 < 100, so lanes never collide); NO superstep events use
/// kSuperstepLane.
inline constexpr std::uint32_t cache_lane(std::uint32_t level,
                                          std::uint32_t idx) {
  return 100 * level + idx;
}
inline constexpr std::uint32_t kSuperstepLane = 90;
inline constexpr std::uint32_t kPsimEpochLane = 91;
inline constexpr std::uint32_t kServeLane = 92;

/// Serializes the tracer's events as Chrome trace_event JSON (the "JSON
/// array format" chrome://tracing and Perfetto load).  Deterministic: ring
/// order, then event order within each ring; integers only.
std::string chrome_trace_json(const Tracer& tracer);

/// Writes chrome_trace_json() to `path`; returns false (and warns on
/// stderr) on I/O failure.  If any ring overwrote events (flight-recorder
/// drops) a warning naming the per-ring counts goes to stderr -- the
/// exported stream is truncated and span analysis will refuse it.
bool write_chrome_trace(const std::string& path, const Tracer& tracer);

/// Resolves the shared trace-output convention used by every bench binary,
/// examples/quickstart, and the obliv-trace CLI: an explicit
/// `--trace-out=<path>` argument wins, else the OBLIV_TRACE_OUT environment
/// variable, else `fallback` (empty = tracing stays off).  Lives here
/// rather than bench/common.hpp so non-bench binaries resolve the flag
/// identically.
std::string resolve_trace_out(int argc, char** argv,
                              std::string_view fallback = {});

/// Human-readable names used by the exporter (and tests).
std::string_view event_name(EventKind kind);
std::string_view anchor_reason_name(AnchorReason reason);
std::string_view hint_name(std::uint8_t hint);

}  // namespace obliv::obs
