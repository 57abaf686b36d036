// NativeExecutor: runs MO algorithms with real threads on the host machine.
//
// The same algorithm templates that run on SimExecutor (for exact HM-model
// metrics) run here for wall-clock measurements, demonstrating that the
// hint-based schedule is executable on a real multicore.  The executor is
// itself multicore-oblivious: it only uses the number of worker threads (a
// run-time resource, not an algorithm parameter) and treats space-bound
// hints as *steal cut-offs* -- a task whose space bound is below the grain
// threshold is never made stealable and runs on the forking core, which is
// the native analogue of anchoring at a private cache.
//
// The scheduler is WorkStealingPool, randomized work stealing as analysed
// for HBP computations by Cole and Ramachandran: one Chase-Lev deque per
// worker; the owner forks/joins through its own deque under relaxed
// atomics, idle workers steal FIFO and *block* when the machine is
// saturated.  CGC loops use lazy binary splitting: a range peels
// grain-sized chunks sequentially and only splits in half when the local
// deque has been emptied by thieves.  Forked tasks live on the forking
// frame's stack, so dispatch performs no heap allocation.
//
// Every construct borrows its body as a two-word util::FnRef, and the one
// SB fork, sb_parallel, takes a braced list of SbTasks whose lambdas live
// until it returns.  A fork therefore allocates nothing: it runs the first
// above-grain task on this core, forks each later above-grain one as a
// stack Task, and runs below-grain tasks inline in order.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "fault/status.hpp"
#include "obs/trace.hpp"
#include "sched/cancel.hpp"
#include "sched/hints.hpp"
#include "sched/ws_deque.hpp"
#include "util/fn_ref.hpp"
#include "util/simd.hpp"

namespace obliv::sched {

/// Best-effort: pin the calling thread to core `core % hardware cores`.
/// Returns false when the platform has no affinity API or the call fails.
bool pin_current_thread(unsigned core) noexcept;

/// True when the OBLIV_PIN environment variable asks for worker pinning
/// (any value except "0"/"off").  Off by default: pinning is a measurement
/// aid, not a throughput win, and it is rude in shared containers.
bool pinning_requested() noexcept;

template <class T>
class NatRef;
template <class T>
class NatBuf;

/// A stealable unit of work.  Instances live on the stack of the forking
/// function (structured fork/join: the parent joins every child before its
/// frame dies), so scheduling a Task moves one pointer -- no allocation, no
/// type-erased callable object, no virtual dispatch (a plain function
/// pointer selects the concrete body).
class Task {
 public:
  using RunFn = void (*)(Task*);

  explicit Task(RunFn run_fn) : run_(run_fn) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  void run() { run_(this); }
  bool finished() const {
    return state_.load(std::memory_order_acquire) == kDone;
  }

  /// The cancellation token governing this task's tree, or nullptr.  Set
  /// once at the tree root (the serve layer sets it per job before
  /// forking); fork() propagates the forking thread's current token into
  /// token-less children, so the whole tree shares one token without
  /// per-task bookkeeping.  Poisoning never skips a task: a poisoned
  /// task still runs (its body no-ops at the next check) so every join
  /// completes and the fork/join structure stays intact.
  CancelToken* cancel_token() const { return token_; }
  void set_cancel_token(CancelToken* tok) { token_ = tok; }

  // Completion / sleeping-joiner handshake, folded into one atomic word so
  // the finisher never touches the Task after completion is visible (the
  // joiner may pop its stack frame the instant it observes kDone).  The
  // joiner CASes kRunning -> kAwaited before sleeping; the finisher's
  // exchange to kDone atomically publishes completion *and* reads whether a
  // joiner registered.  The RMWs totally order the two: either the CAS came
  // first (exchange returns kAwaited -> wake the joiner) or the exchange
  // came first (the CAS fails, the joiner sees kDone and never sleeps).
  // Tasks nobody sleeps on -- the vast majority -- complete silently.
  void mark_awaited() {
    std::uint8_t expected = kRunning;
    state_.compare_exchange_strong(expected, kAwaited,
                                   std::memory_order_seq_cst);
  }
  /// Publishes completion; true if a joiner is (or may be) asleep on it.
  /// The Task may be destroyed by its joiner as soon as this returns.
  bool finish_and_check_awaited() {
    return state_.exchange(kDone, std::memory_order_seq_cst) == kAwaited;
  }

 private:
  static constexpr std::uint8_t kRunning = 0, kAwaited = 1, kDone = 2;
  RunFn run_;
  CancelToken* token_ = nullptr;
  std::atomic<std::uint8_t> state_{kRunning};
};

/// Work-stealing fork/join pool.  The constructing program's calling thread
/// participates as worker 0 whenever it enters through run_root(); the pool
/// spawns threads-1 std::threads for the remaining slots.
class WorkStealingPool {
 public:
  explicit WorkStealingPool(unsigned threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned threads() const { return nworkers_; }

  /// Runs `root` on the calling thread, registering it as worker 0 if it is
  /// not already a pool worker.  Concurrent external callers serialize.
  void run_root(Task& root);

  /// Pushes `t` onto the current worker's deque (caller must be inside
  /// run_root or a worker).  `t` must outlive the matching join().
  void fork(Task* t);

  /// Blocks until `t` completes, draining the local deque and stealing
  /// while it waits; sleeps (no spin-yield) only when there is nothing to
  /// help with.
  void join(Task* t);

  /// Like join(), but gives up when `deadline` passes or `quit()` turns
  /// true at an idle point (quit is polled between tasks, never mid-task).
  /// Returns t->finished(); on false the caller is still responsible for
  /// eventually joining `t` to completion.  Built for layered schedulers
  /// whose dispatcher multiplexes watchdog duties (deadline sweeps,
  /// re-admission after a cancel freed budget) with helping the pool: the
  /// serve dispatcher is the only current caller.
  bool join_interruptible(Task* t,
                          std::chrono::steady_clock::time_point deadline,
                          util::FnRef<bool()> quit);

  /// Wakes every blocked worker/joiner so a pending join_interruptible
  /// re-polls its quit predicate.  Safe from any thread.
  void kick();

  /// True when the current worker's deque has been emptied by thieves --
  /// the lazy-splitting signal that more parallelism is profitable.
  bool local_deque_empty() const;

  /// Worker slot of the calling thread on *this* pool, or -1 when the
  /// caller is not bound to it (an external thread outside run_root).
  /// Lets layered emitters (obliv::serve) target the calling worker's
  /// single-producer trace ring without widening the tracer API.
  int this_worker_id() const;

  /// Attaches an obs::Tracer (nullptr detaches): task spawn / steal /
  /// complete events with the deque depth at each spawn, one ring per
  /// worker (ring index = worker id modulo the tracer's ring count -- give
  /// the Tracer threads() rings for no aliasing).  Timestamps come from
  /// steady_clock, so native traces are not deterministic.  Attach and
  /// detach only while the pool is quiescent (no run_root in flight).
  ///
  /// Also registers the pool's distribution metrics: the victim-scan
  /// latency of successful steals and the iteration count of each forked
  /// loop half.  Registration happens here (single-threaded) so workers
  /// only ever touch the pre-resolved Histogram pointers, whose record()
  /// is a handful of relaxed atomics.  Like fault_plan_ below, the tracer
  /// and histogram pointers are atomic because idle workers keep polling
  /// try_steal() (which peeks at the tracer) even with no root task in
  /// flight -- "quiescent" never means "no reader".
  void set_tracer(obs::Tracer* tracer) {
    obs::Histogram* steal = nullptr;
    obs::Histogram* grain = nullptr;
    if (tracer != nullptr) {
      steal = &tracer->counters().histogram("sched.steal.scan_ns");
      grain = &tracer->counters().histogram("sched.fork.grain_iters");
    }
    steal_hist_.store(steal, std::memory_order_release);
    grain_hist_.store(grain, std::memory_order_release);
    tracer_.store(tracer, std::memory_order_release);
  }

  /// Histogram of iterations per forked loop half (null iff no tracer);
  /// recorded by the lazy-splitting loop driver.
  obs::Histogram* fork_grain_hist() const {
    return grain_hist_.load(std::memory_order_acquire);
  }

  /// Attaches a fault::FaultPlan (nullptr detaches) that perturbs
  /// steal-victim selection (kStealVictim), inverts the pop-vs-steal help
  /// order (kPopOrder), stalls workers before tasks (kWorkerStall), and
  /// drops fork wake-ups (kWakeDrop -- legal per the fork() comment: a
  /// wake-up accelerates parallelism but is never needed for progress;
  /// completion notifies are exempt).  Every injection leaves the pool in a
  /// state some legal schedule could reach, so results must be unchanged --
  /// that is the property tests/test_fault_fuzz.cpp checks.  The pointer is
  /// atomic because idle workers keep polling try_steal() even with no root
  /// task in flight; still attach only between run_root calls so every task
  /// of a run sees one plan.
  void set_fault_plan(fault::FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }

 private:
  struct Worker {
    WsDeque<Task*> deque;
    std::uint64_t rng;  // victim-selection state, owner-only
  };

  void worker_main(unsigned id);
  /// One help step of worker `self`: runs one task from its own deque or
  /// stolen from another's; false when there was nothing to run.
  bool help_one(unsigned self);
  void execute(Task* t);
  Task* try_steal(unsigned self);
  // Acquire pairs with the release in set_fault_plan: a worker that sees
  // the pointer must also see the plan's constructor writes (seed, site
  // probabilities), since idle pollers can observe it mid-attach.
  fault::FaultPlan* plan() const {
    return fault_plan_.load(std::memory_order_acquire);
  }
  /// Current tracer; acquire pairs with the release in set_tracer so a
  /// worker that sees the pointer also sees the registered histograms.
  obs::Tracer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }
  /// Ring owned by worker `id` under tracer `tr` (pre-loaded by the
  /// caller so one emission site does a single atomic read).
  static std::uint32_t ring_for(unsigned id, const obs::Tracer* tr) {
    return static_cast<std::uint32_t>(id % tr->ring_count());
  }
  bool have_stealable() const;
  void notify(bool everyone);
  /// Sleeps until a notify/kick, stop, or `deadline` (none: no timeout),
  /// unless `quit_early()` holds once registered as a sleeper.
  template <class Pred>
  void idle_wait(Pred quit_early,
                 std::optional<std::chrono::steady_clock::time_point>
                     deadline = std::nullopt);
  /// Stops and joins the spawned workers (destructor and failed setup).
  void stop_and_join();

  unsigned nworkers_;
  unsigned ncores_;  // hardware_concurrency, >= 1; see notify()
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex root_mu_;  // serializes external (non-worker) entrants

  // Eventcount for blocking idle workers and joiners.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::atomic<obs::Tracer*> tracer_{nullptr};
  std::atomic<obs::Histogram*> steal_hist_{nullptr};
  std::atomic<obs::Histogram*> grain_hist_{nullptr};
  std::atomic<fault::FaultPlan*> fault_plan_{nullptr};
  bool pinned_ = false;  // OBLIV_PIN: spawned workers pin (worker_main)
};

class NativeExecutor {
 public:
  /// Largest accepted worker-thread request.  Each worker costs a kernel
  /// thread plus a deque; beyond this the request is a config error, not a
  /// resource to attempt (and fail half-way through) allocating.
  static constexpr unsigned kMaxThreads = 4096;

  /// threads == 0 selects std::thread::hardware_concurrency().  Throws
  /// obliv::Error on absurd thread counts (> kMaxThreads) and propagates
  /// allocation / thread-spawn failures; prefer make() on untrusted input.
  explicit NativeExecutor(unsigned threads = 0,
                          std::uint64_t sequential_grain_words = 1 << 12);

  /// Non-throwing companion: kUnsupported for threads > kMaxThreads,
  /// kResourceExhausted when pool setup fails (thread spawn or allocation,
  /// including injected failures at fault::InjectSite::kAllocSetup -- the
  /// partially-built pool is torn down cleanly first; see the
  /// WorkStealingPool constructor).
  static Result<NativeExecutor> make(unsigned threads = 0,
                                     std::uint64_t sequential_grain_words =
                                         1 << 12) noexcept;

  unsigned threads() const { return ws_->threads(); }

  /// The underlying work-stealing pool, never null.  The serve layer
  /// schedules jobs as sibling task trees directly on the pool (fork/join
  /// from inside one long-lived root); algorithm code never needs this.
  WorkStealingPool* steal_pool() { return ws_.get(); }

  /// Steal cut-off grain (words): tasks whose space bound is below this
  /// run inline on the forking core.  Exposed so layered schedulers can
  /// size admission estimates consistently with the executor.
  std::uint64_t sequential_grain_words() const { return grain_; }

  template <class T>
  NatBuf<T> make_buf(std::size_t n);

  template <class T>
  void copy(NatRef<T> dst, NatRef<T> src);

  // Same interface as SimExecutor so algorithms are written once. ----------

  void cgc_pfor(std::uint64_t lo, std::uint64_t hi,
                std::uint64_t words_per_iter,
                util::FnRef<void(std::uint64_t, std::uint64_t)> body);

  void sb_parallel(std::initializer_list<SbTask> tasks);

  /// sb_parallel of two tasks.  Kept only because perfbench's fork_join_ns
  /// times it; algorithm code calls sb_parallel.
  void sb_parallel2(std::uint64_t space1, util::FnRef<void()> f1,
                    std::uint64_t space2, util::FnRef<void()> f2) {
    sb_parallel({{space1, f1}, {space2, f2}});
  }

  void sb_seq(std::uint64_t space_words, util::FnRef<void()> body) {
    if (detail::cancel_pending()) return;
    body();
  }

  void cgc_sb_pfor(std::uint64_t count, std::uint64_t space_words,
                   util::FnRef<void(std::uint64_t)> body);

  void tick(std::uint64_t) {}

  /// Forwards to the work-stealing pool (see WorkStealingPool::set_tracer)
  /// and names one export lane per worker.
  void set_tracer(obs::Tracer* tracer) {
    ws_->set_tracer(tracer);
    if (tracer != nullptr) {
      for (unsigned i = 0; i < ws_->threads(); ++i) {
        tracer->name_lane(i, "worker " + std::to_string(i));
      }
    }
  }

  /// Forwards to the work-stealing pool (see WorkStealingPool::
  /// set_fault_plan).
  void set_fault_plan(fault::FaultPlan* plan) { ws_->set_fault_plan(plan); }

 private:
  // Behind a pointer so the executor stays movable (make() returns it by
  // value); the workers capture the pool's address.
  std::unique_ptr<WorkStealingPool> ws_;
  std::uint64_t grain_;
};

/// Un-instrumented counterpart of SimRef: load/store compile to plain
/// element access.
template <class T>
class NatRef {
 public:
  using value_type = T;

  /// Opts into sched::is_direct_ref_v: load/store here ARE plain memory
  /// access, so algorithm leaves may replace them with simd:: kernels.
  static constexpr bool kDirectMemory = true;

  NatRef() = default;
  NatRef(T* data, std::size_t n) : data_(data), n_(n) {}

  T load(std::size_t i) const { return data_[i]; }
  void store(std::size_t i, const T& v) const { data_[i] = v; }
  template <class F>
  void update(std::size_t i, F&& f) const {
    f(data_[i]);
  }

  // Batched counterparts of SimRef's run accessors (bulk copies here).
  void load_run(std::size_t i, std::size_t len, T* out) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      simd::copy_elems(data_ + i, out, len);
    } else {
      std::copy(data_ + i, data_ + i + len, out);
    }
  }
  void store_run(std::size_t i, std::size_t len, const T* src) const {
    if constexpr (std::is_trivially_copyable_v<T>) {
      simd::copy_elems(src, data_ + i, len);
    } else {
      std::copy(src, src + len, data_ + i);
    }
  }
  std::pair<T, T> load2(std::size_t i) const { return {data_[i], data_[i + 1]}; }

  NatRef slice(std::size_t off, std::size_t len) const {
    return NatRef(data_ + off, len);
  }

  std::size_t size() const { return n_; }
  T* raw() const { return data_; }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
};

template <class T>
class NatBuf {
 public:
  NatBuf() = default;
  explicit NatBuf(std::size_t n) : v_(n) {}

  NatRef<T> ref() { return NatRef<T>(v_.data(), v_.size()); }
  std::size_t size() const { return v_.size(); }
  std::vector<T>& raw() { return v_; }
  const std::vector<T>& raw() const { return v_; }

 private:
  std::vector<T> v_;
};

template <class T>
NatBuf<T> NativeExecutor::make_buf(std::size_t n) {
  fault::maybe_fail_alloc(fault::InjectSite::kAllocBuf);
  return NatBuf<T>(n);
}

/// Native counterpart of SimExecutor::copy: a bulk memory copy.
template <class T>
void NativeExecutor::copy(NatRef<T> dst, NatRef<T> src) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    simd::copy_elems(src.raw(), dst.raw(), src.size());
  } else {
    std::copy(src.raw(), src.raw() + src.size(), dst.raw());
  }
}

}  // namespace obliv::sched
