// obliv::serve -- a multi-job serving front-end over one shared pool.
//
// Everything below src/serve runs one algorithm invocation at a time; this
// layer multiplexes a *stream* of typed algorithm requests (the seven paper
// families, over caller-owned buffers) onto a single NativeExecutor, so one
// long-running process can serve many concurrent clients.  The paper's SB
// space bounds are what make that safe: each family's anchored working set
// S(n) is a closed form of the request size, so admission control can keep
// the sum of in-flight working sets under a configured cache budget --
// concurrent jobs then cannot evict each other's anchored sets, which is
// the co-scheduling analogue of the single-job anchoring rule.
//
// Scheduling shape: the server owns a dispatcher thread that enters the
// pool's run_root() ONCE, with a service root that lives for the server's
// lifetime, and forks each admitted job as a heap-held sibling task tree.
// Workers steal whole jobs FIFO (coarsest-first), and every nested parallel
// construct a job's algorithm issues takes the pool's mutex-free nested
// path -- so N concurrent jobs interleave at task granularity on the same
// deques, rather than serializing per top-level construct at root_mu_.
// While jobs are in flight the dispatcher helps execute them via join(),
// which means admission / deadline / cancellation processing has latency
// bounded by one job's duration -- acceptable for a batch-of-jobs server
// and what keeps the design allocation- and lock-free on the hot path.
//
// Per-job isolation (PR 5): each job body runs under try/catch and maps
// failures onto the typed Status -- std::bad_alloc (including injected
// kAllocBuf faults) to kResourceExhausted, obliv::Error to its own code,
// anything else to kInternal -- so one failing job never takes down the
// server or its siblings.  Schedule chaos attached via set_fault_plan()
// perturbs only *which* legal schedule runs; results are bit-identical
// (the PR 5 fuzz property, re-checked for served jobs in
// tests/test_serve_concurrency.cpp).
//
// Cancellation and overload control (PR 10): every job tree carries a
// sched::CancelToken, so cancel() works on *running* jobs too -- the tree
// unwinds cooperatively at the executor's fork/anchor checks and completes
// with kCancelled (output buffers unspecified).  A deadline watchdog rides
// the dispatcher (join_interruptible: no extra thread on 1-core hosts) and
// poisons jobs whose deadline expires mid-run (kDeadlineExceeded); the
// poisoned job's space budget is released immediately so queued admissions
// unblock before the unwind finishes.  When the recent queue-wait p99
// crosses ServerOptions::shed_wait_p99_ns with a backlog present, submits
// are shed with kUnavailable plus a retry-after hint; submit_with_retry()
// is the matching bounded, seeded-jitter client loop.  See DESIGN.md §5h.
//
// Per-request observability (PR 4/7): admissions are emitted by the
// dispatcher on ring 0 and job begin/end by the executing worker on its
// own ring, all on the dedicated kServeLane, tagged with a dense job
// sequence number -- `obliv-trace analyze` prints a per-job latency
// summary for any served trace.  Aggregate counters (jobs by outcome,
// space peak vs budget, queue peak) are published into the tracer's
// CounterRegistry at drain time, single-threaded.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <variant>

#include "algo/fft.hpp"
#include "algo/spmdv.hpp"
#include "fault/fault.hpp"
#include "fault/status.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"

namespace obliv::serve {

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The seven paper algorithm families a server accepts.  Stamped into the
/// kJob* events' detail byte, so keep values dense and stable.
enum class Family : std::uint8_t {
  kScan = 0,
  kSort,
  kFft,
  kTranspose,
  kGep,
  kListRank,
  kSpmdv,
};
inline constexpr std::size_t kFamilies = 7;

std::string_view family_name(Family f);

// Request payloads are *views* over caller-owned memory (NatRef carries a
// pointer + length, nothing more).  The caller keeps every referenced
// buffer alive and unaliased by other live jobs until the job's handle
// reports completion; results are written in place, exactly as the direct
// algorithm entry points do.

/// In-place inclusive prefix sum over int64 (Sec III-A).
struct ScanRequest {
  sched::NatRef<std::int64_t> data;
};

/// SPMS sort of uint64 keys, ascending (Thm 3-5).
struct SortRequest {
  sched::NatRef<std::uint64_t> keys;
};

/// In-place MO-FFT (Thm 2); size must be a power of two.
struct FftRequest {
  sched::NatRef<algo::cplx> data;
};

/// Out-of-place MO-MT transposition of an n x n matrix (Thm 1); n must be
/// a power of two and `in`/`out` may not alias.
struct TransposeRequest {
  sched::NatRef<double> in;
  sched::NatRef<double> out;
  std::uint64_t n = 0;  ///< matrix side
};

/// In-place I-GEP Floyd-Warshall over an n x n matrix (Sec IV).
struct GepRequest {
  sched::NatRef<double> matrix;
  std::uint64_t n = 0;  ///< matrix side
};

/// MO-LR list ranking (Thm 7): succ/pred use algo::kNil as terminators,
/// dist receives the rank.  All three the same length.
struct ListRankRequest {
  sched::NatRef<std::uint64_t> succ;
  sched::NatRef<std::uint64_t> pred;
  sched::NatRef<std::uint64_t> dist;
};

/// SpM-DV y = A*x in the paper's (A_v, A_0) separator-reordered layout
/// (Sec V).  a0 holds y.size()+1 row offsets into av.
struct SpmdvRequest {
  sched::NatRef<algo::SpmEntry> av;
  sched::NatRef<std::uint64_t> a0;
  sched::NatRef<double> x;
  sched::NatRef<double> y;
};

using Request = std::variant<ScanRequest, SortRequest, FftRequest,
                             TransposeRequest, GepRequest, ListRankRequest,
                             SpmdvRequest>;

Family family_of(const Request& req);

/// Structural validation, applied at submit time: sizes the algorithm does
/// not take (workload::size_ok, e.g. a non-power-of-two FFT or a gep side
/// that does not halve evenly), null views with nonzero lengths, aliased
/// transpose buffers, short matrices, mismatched list-rank arrays,
/// inconsistent (A_v, A_0) shapes.  kOk means the request is safe to
/// execute.
Status validate(const Request& req);

/// The admission-control working-set estimate: the family's SB space bound
/// S(n) in words (workload::space_words in workload/kinds.hpp), evaluated
/// for this request's size.  Deterministic and cheap (no data access), so
/// clients can predict admission behavior.
std::uint64_t space_estimate_words(const Request& req);

// ---------------------------------------------------------------------------
// Server configuration / results
// ---------------------------------------------------------------------------

struct ServerOptions {
  /// Worker threads for the shared pool; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Combined anchored-working-set budget for concurrently admitted jobs,
  /// in words.  A request whose own estimate exceeds this is rejected at
  /// submit (it could never be admitted); the default models a 32 MiB
  /// last-level cache.
  std::uint64_t space_budget_words = std::uint64_t{1} << 22;
  /// Bounded admission queue: submits beyond this many *waiting* jobs are
  /// rejected with kResourceExhausted (admitted jobs do not count).
  std::size_t queue_capacity = 64;
  /// Steal cut-off grain forwarded to the executor.
  std::uint64_t sequential_grain_words = 1 << 12;
  /// Overload shedding: when the p99 of recent queue waits exceeds this
  /// and a backlog exists (the queue is non-empty), submits are refused
  /// with kUnavailable carrying a retry-after hint.  0 disables shedding.
  /// The p99 is computed over a sliding window of the same samples that
  /// feed the serve.job.wait_ns histogram, so a traced run can verify the
  /// shed decisions against the exported distribution.
  std::uint64_t shed_wait_p99_ns = 0;
  /// Minimum wait samples before shedding may trigger (a cold server has
  /// no latency evidence); clamped to the sliding window size (64).
  std::uint32_t shed_min_samples = 8;
};

struct JobOptions {
  /// Deadline for *completing* the job.  A job still queued when its
  /// deadline passes completes with kDeadlineExceeded and never runs; a
  /// running job is poisoned by the dispatcher's watchdog and unwinds at
  /// the executor's next fork/anchor check, also completing with
  /// kDeadlineExceeded -- its output buffers are then unspecified (the
  /// tree stopped mid-schedule; rerun the request to get real results).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Aggregate server statistics; also published as serve.* counters into
/// the attached tracer's CounterRegistry at drain time.
struct ServerStats {
  std::uint64_t submitted = 0;          ///< accepted submits
  std::uint64_t completed_ok = 0;       ///< ran and returned kOk
  std::uint64_t failed = 0;             ///< ran and returned an error
  std::uint64_t rejected = 0;           ///< refused at submit (validation,
                                        ///< queue full, over-budget, drain)
  std::uint64_t shed = 0;               ///< refused under overload control
                                        ///< (not counted in `rejected`)
  std::uint64_t cancelled = 0;          ///< completed kCancelled (queued or
                                        ///< mid-run, incl. injected poisons)
  std::uint64_t cancelled_running = 0;  ///< subset of `cancelled` that was
                                        ///< poisoned after its body started
  std::uint64_t deadline_exceeded = 0;  ///< completed kDeadlineExceeded
  std::uint64_t deadline_exceeded_running = 0;  ///< subset expired mid-run
  std::uint64_t space_peak_words = 0;   ///< max combined in-flight estimate
  std::uint64_t queue_peak = 0;         ///< max waiting jobs
  std::uint64_t space_budget_words = 0; ///< the configured budget
  std::uint64_t queue_depth = 0;        ///< live gauge: jobs waiting now
  std::uint64_t inflight = 0;           ///< live gauge: jobs admitted and
                                        ///< not yet reaped
};

namespace detail {

struct Core;

/// Per-job completion record.  Immutable identity fields are set before
/// the state is visible to any other thread; the (done, status) pair flips
/// exactly once under mu.
struct JobState {
  std::uint64_t seq = 0;
  Family family = Family::kScan;
  std::uint64_t est_words = 0;

  /// The job tree's cancellation token (installed on the root task before
  /// fork, inherited by every descendant).  Living here -- not on the Job
  /// -- lets handles poison a tree without touching Job lifetime.
  sched::CancelToken token;
  /// Sticky: set the instant the job body starts on a worker.
  std::atomic<bool> begun{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  Status status;
};

}  // namespace detail

/// Handle to one submitted job.  Copyable; all copies observe the same
/// completion.  Handles keep the server core (and its pool) alive, so a
/// handle outliving the Server object stays safe to wait on.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return st_ != nullptr; }

  /// Dense per-server job sequence number (also in the trace events).
  std::uint64_t id() const { return st_ ? st_->seq : 0; }
  Family family() const { return st_ ? st_->family : Family::kScan; }
  std::uint64_t space_estimate() const { return st_ ? st_->est_words : 0; }

  /// True once the job has a result (non-blocking).
  bool done() const {
    if (st_ == nullptr) return false;
    std::lock_guard<std::mutex> lk(st_->mu);
    return st_->done;
  }

  /// Blocks until the job completes; returns its Status.  Every accepted
  /// job completes eventually (drain finishes queued work; cancellation
  /// and deadlines complete promptly via the poison protocol), so wait()
  /// cannot hang on a live server.
  Status wait() const;

  /// Timed wait.  Returns the job's final Status if it completed within
  /// `timeout`, or a typed kUnavailable ("still running") Status on
  /// timeout.  Never consumes the result: wait()/wait_for() may be called
  /// again, from any copy of the handle.  (kUnavailable is unambiguous
  /// here -- a *completed* job can never carry it, since submit-side
  /// kUnavailable refusals produce no handle at all.)
  Status wait_for(std::chrono::nanoseconds timeout) const;

  /// True while the job body is executing (sticky start flag && !done).
  bool running() const {
    if (st_ == nullptr) return false;
    if (!st_->begun.load(std::memory_order_acquire)) return false;
    return !done();
  }

  /// Requests cancellation; returns true iff this call decided the job's
  /// fate.  A queued job completes with kCancelled and never runs.  A
  /// *running* job is poisoned: its task tree stops forking, unwinds at
  /// the executor's next fork/anchor check (promptness bound: one
  /// sequential grain per in-flight leaf), and completes with kCancelled
  /// -- output buffers are then unspecified.  Returns false only when the
  /// job already completed (its existing status stands).  cancel() never
  /// blocks on job execution.
  bool cancel();

 private:
  friend class Server;
  friend struct detail::Core;
  JobHandle(std::shared_ptr<detail::Core> core,
            std::shared_ptr<detail::JobState> st)
      : core_(std::move(core)), st_(std::move(st)) {}

  std::shared_ptr<detail::Core> core_;
  std::shared_ptr<detail::JobState> st_;
};

class Server {
 public:
  /// Builds the pool and starts the dispatcher.  Throws obliv::Error on
  /// invalid options and propagates pool setup failures; prefer make() on
  /// untrusted input.
  explicit Server(ServerOptions opts = {});

  /// Non-throwing companion: kUnsupported / kInvalidConfig for bad
  /// options, kResourceExhausted when pool or dispatcher setup fails.
  static Result<Server> make(ServerOptions opts = {}) noexcept;

  /// Drains: equivalent to shutdown().
  ~Server();

  Server(Server&&) noexcept = default;
  Server& operator=(Server&&) noexcept = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates and enqueues a request.  Errors: kInvalidArgument
  /// (malformed request), kResourceExhausted (queue full, or the request
  /// alone exceeds the space budget), kUnavailable (server draining, or
  /// shedding under overload -- the shed variant carries a retry-after
  /// hint readable via retry_after_ms_hint()).
  Result<JobHandle> submit(const Request& req, const JobOptions& jopts = {});

  /// Graceful drain: stops accepting submits, completes every already
  /// accepted job (queued jobs still honor their deadlines), publishes
  /// serve.* counters into the attached tracer, and joins the
  /// dispatcher.  Idempotent and safe to call concurrently.
  void shutdown();

  ServerStats stats() const;
  unsigned threads() const;
  const ServerOptions& options() const;

  /// Attaches an obs::Tracer (nullptr detaches).  Only while quiescent
  /// (no jobs in flight): rings are single-producer and the histogram
  /// registry is not thread-safe.  Give the tracer threads() rings.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches schedule-chaos fault injection to the shared pool (see
  /// WorkStealingPool::set_fault_plan).  Legal-schedule perturbations
  /// only: served results are unchanged.
  void set_fault_plan(fault::FaultPlan* plan);

 private:
  std::shared_ptr<detail::Core> core_;
};

// ---------------------------------------------------------------------------
// Overload-control client helpers
// ---------------------------------------------------------------------------

/// Bounded jittered-exponential retry for shed submits.  Deterministic
/// under a fixed seed: attempt k's backoff is a pure function of
/// (seed, k, hint), so tests can assert the exact delay sequence.
struct RetryPolicy {
  std::uint32_t max_attempts = 5;          ///< total submit attempts (>= 1)
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{64};
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< jitter PRNG seed
};

/// Parses the retry-after hint (milliseconds) out of a shed kUnavailable
/// Status; nullopt for any other Status (including drain kUnavailable,
/// which carries no hint -- retrying a draining server is futile).
std::optional<std::uint32_t> retry_after_ms_hint(const Status& s);

/// Backoff before attempt `attempt` (1-based: the delay after the
/// attempt'th failure).  Exponential from RetryPolicy::initial_backoff,
/// capped at max_backoff, scaled by a jitter factor in [0.5, 1.0] drawn
/// from `rng`, and floored at the server's retry-after hint when one was
/// given.  Exposed separately so determinism is testable without timing.
std::chrono::milliseconds retry_backoff(const RetryPolicy& policy,
                                        std::uint32_t attempt,
                                        util::Xoshiro256& rng,
                                        std::optional<std::uint32_t> hint_ms);

/// submit() with bounded retry on shed (hinted kUnavailable) responses.
/// Sleeps retry_backoff() between attempts; returns the first
/// non-shed outcome, or the last shed Status after max_attempts.  Drain
/// kUnavailable and every other error return immediately (retrying cannot
/// help them).
Result<JobHandle> submit_with_retry(Server& server, const Request& req,
                                    const JobOptions& jopts = {},
                                    const RetryPolicy& policy = {});

}  // namespace obliv::serve
