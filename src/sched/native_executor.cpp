#include "sched/native_executor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "util/bits.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace obliv::sched {

namespace detail {
// See cancel.hpp: the token of the task tree the thread is currently
// executing.  Installed by WorkStealingPool::execute() around each task
// body and by ScopedCancelToken for direct callers.
thread_local CancelToken* tls_cancel_token = nullptr;
}  // namespace detail

bool pin_current_thread(unsigned core) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  CPU_SET(core % ncpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

bool pinning_requested() noexcept {
  const char* env = std::getenv("OBLIV_PIN");
  if (env == nullptr || *env == '\0') return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0;
}

namespace {
constexpr bool kAffinitySupported =
#if defined(__linux__)
    true;
#else
    false;
#endif
}  // namespace

// ---------------------------------------------------------------------------
// WorkStealingPool
// ---------------------------------------------------------------------------

namespace {

/// Which pool (if any) the current thread belongs to, and its worker slot.
/// Workers register permanently; an external caller claims slot 0 for the
/// duration of a run_root() and restores the previous binding afterwards,
/// so nested executors (a task that builds its own NativeExecutor) unwind
/// correctly.
struct TlsBinding {
  WorkStealingPool* pool = nullptr;
  unsigned id = 0;
};
thread_local TlsBinding tls_binding;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

WorkStealingPool::WorkStealingPool(unsigned threads)
    : nworkers_(threads == 0 ? 1 : threads),
      ncores_(std::max(1u, std::thread::hardware_concurrency())),
      pinned_(pinning_requested() && kAffinitySupported) {
  workers_.reserve(nworkers_);
  for (unsigned i = 0; i < nworkers_; ++i) {
    fault::maybe_fail_alloc(fault::InjectSite::kAllocSetup);
    workers_.push_back(std::make_unique<Worker>());
    workers_[i]->rng = 0x853c49e6748fea9bull + i;
  }
  threads_.reserve(nworkers_ > 0 ? nworkers_ - 1 : 0);
  try {
    for (unsigned i = 1; i < nworkers_; ++i) {
      fault::maybe_fail_alloc(fault::InjectSite::kAllocSetup);
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  } catch (...) {
    // A mid-loop spawn failure (std::system_error, bad_alloc, or an
    // injected kAllocSetup fault) must not leak the already-running
    // workers: joinable std::threads terminate the process on destruction.
    // Tear down exactly like the destructor, then rethrow so make() can
    // surface kResourceExhausted.
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(idle_mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    idle_cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
    throw;
  }
}

WorkStealingPool::~WorkStealingPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::run_root(Task& root) {
  if (tls_binding.pool == this) {
    // Nested entry from a worker (or a recursive root call): already bound.
    root.run();
    return;
  }
  std::lock_guard<std::mutex> lk(root_mu_);
  const TlsBinding saved = tls_binding;
  tls_binding = TlsBinding{this, 0};
  struct Restore {
    const TlsBinding saved;
    ~Restore() { tls_binding = saved; }
  } restore{saved};
  root.run();
  // Structured fork/join: every task forked by root was joined before it
  // returned, so slot 0's deque is empty again.
  assert(workers_[0]->deque.empty());
}

void WorkStealingPool::fork(Task* t) {
  assert(tls_binding.pool == this);
  // Tree-scoped cancellation: a token-less child inherits the forking
  // thread's current token, so one set_cancel_token() at the tree root
  // covers every descendant -- including tasks forked by thieves that
  // stole part of the tree.  Forking is itself a poison check site: the
  // kCancelPoison fault delivers an adversarial poison exactly here, the
  // moment a new task becomes stealable, which is the worst point for a
  // cancel to land (the child must still run, as a no-op, so its join
  // completes).
  if (t->cancel_token() == nullptr) {
    t->set_cancel_token(detail::tls_cancel_token);
  }
  if (CancelToken* tok = t->cancel_token()) {
    if (fault::inject(plan(), fault::InjectSite::kCancelPoison)) {
      tok->poison(CancelToken::Reason::kCancelled);
    }
  }
  workers_[tls_binding.id]->deque.push_bottom(t);
  if constexpr (obs::kTracingCompiledIn) {
    if (obs::Tracer* tr = tracer()) {
      const unsigned id = tls_binding.id;
      tr->emit(ring_for(id, tr), obs::EventKind::kTaskSpawn, 0, id,
               reinterpret_cast<std::uintptr_t>(t),
               workers_[id]->deque.approx_size(), 0);
    }
  }
  // Wake at most a single helper; if it forks in turn it wakes the next
  // one, so the pool ramps up as a wake chain instead of a thundering herd
  // (one futex wake per fork instead of nworkers-1).  Wake-ups are purely a
  // parallelism accelerator, never needed for progress: an unstolen fork is
  // popped back by its owner at join, and a worker about to sleep re-checks
  // for stealable work after registering as a sleeper (the Dekker pairing
  // in notify()/idle_block()).  notify() therefore also skips the wake when
  // as many workers are already awake as the machine has cores --
  // oversubscribed thieves cannot add parallelism, only preemption.
  //
  // That progress argument is exactly why kWakeDrop is a *legal* fault:
  // dropping this accelerator wake-up models a lost futex wake / unlucky
  // preemption, and the schedule that results is one the pool could have
  // produced anyway.
  if (fault::inject(plan(), fault::InjectSite::kWakeDrop)) return;
  notify(/*everyone=*/false);
}

bool WorkStealingPool::local_deque_empty() const {
  assert(tls_binding.pool == this);
  return workers_[tls_binding.id]->deque.empty();
}

int WorkStealingPool::this_worker_id() const {
  return tls_binding.pool == this ? static_cast<int>(tls_binding.id) : -1;
}

void WorkStealingPool::execute(Task* t) {
  if (fault::FaultPlan* p = fault::enabled(plan())) {
    // Simulated preemption: hold the task hostage for a bounded window
    // before running it.  Joiners sleep on the task's state word, not on a
    // timeout, so a stalled task delays but never deadlocks them.  A
    // poisoned tree is exempt: stalling work that exists only to unwind
    // would inflate the cancellation promptness bound for no coverage.
    if (p->should(fault::InjectSite::kWorkerStall) &&
        !(t->cancel_token() != nullptr && t->cancel_token()->poisoned())) {
      const std::uint32_t us = p->stall_us();
      if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }
  // Install the task's token as this thread's current one so anchor-point
  // checks and forked children observe it; restore before completion is
  // published (`t` may be dead past the exchange below).
  CancelToken* const saved_tok = detail::tls_cancel_token;
  detail::tls_cancel_token = t->cancel_token();
  t->run();
  detail::tls_cancel_token = saved_tok;
  // Emit before publishing completion: `t` may be dead past the exchange.
  if constexpr (obs::kTracingCompiledIn) {
    if (obs::Tracer* tr = tracer()) {
      const unsigned id = tls_binding.id;
      tr->emit(ring_for(id, tr), obs::EventKind::kTaskComplete, 0, id,
               reinterpret_cast<std::uintptr_t>(t), 0, 0);
    }
  }
  // Single RMW: publish completion and learn whether a joiner sleeps on it
  // (see the Task handshake comment).  `t` may be dead past this line.
  if (t->finish_and_check_awaited()) notify(/*everyone=*/true);
}

Task* WorkStealingPool::try_steal(unsigned self) {
  const unsigned n = nworkers_;
  if (n <= 1) return nullptr;
  // Victim-scan latency of a *successful* steal, recorded into the tracer's
  // steal histogram; the clock read is paid only with a tracer attached.
  std::chrono::steady_clock::time_point scan_t0;
  if constexpr (obs::kTracingCompiledIn) {
    if (tracer() != nullptr) scan_t0 = std::chrono::steady_clock::now();
  }
  unsigned v = static_cast<unsigned>(splitmix64(workers_[self]->rng) % n);
  if (fault::FaultPlan* p = fault::enabled(plan())) {
    // Adversarial victim selection: start the scan at a plan-chosen worker
    // instead of the owner's PRNG.  Any starting point yields a legal
    // schedule -- the scan still visits every victim once.
    if (p->should(fault::InjectSite::kStealVictim)) {
      v = p->pick(fault::InjectSite::kStealVictim, n);
    }
  }
  for (unsigned k = 0; k < n; ++k, ++v) {
    if (v >= n) v = 0;
    if (v == self) continue;
    if (Task* t = workers_[v]->deque.steal_top()) {
      // Steal-victim selection is the second adversarial poison point: a
      // cancel that lands the instant a task migrates to another worker.
      // The stolen task still executes (its body no-ops once poisoned) so
      // the owner's join always completes.
      if (CancelToken* tok = t->cancel_token()) {
        if (fault::FaultPlan* p = fault::enabled(plan())) {
          if (p->should(fault::InjectSite::kCancelPoison)) {
            tok->poison(CancelToken::Reason::kCancelled);
          }
        }
      }
      if constexpr (obs::kTracingCompiledIn) {
        if (obs::Tracer* tr = tracer()) {
          // Histogram re-loaded (not derived from tr): a detach between
          // the two reads must yield null here, never a stale pointer.
          if (obs::Histogram* h =
                  steal_hist_.load(std::memory_order_acquire)) {
            h->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - scan_t0)
                    .count()));
          }
          tr->emit(ring_for(self, tr), obs::EventKind::kTaskSteal, 0, self,
                   reinterpret_cast<std::uintptr_t>(t), v, 0);
        }
      }
      return t;
    }
  }
  return nullptr;
}

bool WorkStealingPool::have_stealable() const {
  for (const auto& w : workers_) {
    if (!w->deque.empty()) return true;
  }
  return false;
}

void WorkStealingPool::notify(bool everyone) {
  // Dekker pairing with idle_block(), expressed through seq_cst RMWs on
  // sleepers_ (not fences -- GCC's TSan does not model fences): either this
  // RMW observes the sleeper's increment and we notify, or the sleeper's
  // increment reads-from this RMW's release sequence and its work re-check
  // below sees the push/done-flag made visible before it.
  const int asleep = sleepers_.fetch_add(0, std::memory_order_seq_cst);
  if (asleep == 0) return;
  // Saturation gate (fork wake-ups only; completions must always reach
  // their sleeping joiner): with >= ncores workers already awake, waking
  // another cannot increase parallelism -- it would only preempt a running
  // worker to steal from it.  Skipping is safe per the fork() comment.
  if (!everyone &&
      nworkers_ - static_cast<unsigned>(asleep) >= ncores_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  if (everyone) {
    idle_cv_.notify_all();
  } else {
    idle_cv_.notify_one();
  }
}

template <class Pred>
void WorkStealingPool::idle_block(Pred quit_early) {
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    const std::uint64_t seen = epoch_.load(std::memory_order_relaxed);
    // Re-check after registering as a sleeper: any producer that missed us
    // in notify_work() made its work visible before our fence, so we see
    // it here and skip the wait.
    if (!quit_early() && !stop_.load(std::memory_order_relaxed)) {
      idle_cv_.wait(lk, [&] {
        return epoch_.load(std::memory_order_relaxed) != seen ||
               stop_.load(std::memory_order_relaxed);
      });
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

template <class Pred>
void WorkStealingPool::idle_block_until(
    std::chrono::steady_clock::time_point deadline, Pred quit_early) {
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    const std::uint64_t seen = epoch_.load(std::memory_order_relaxed);
    if (!quit_early() && !stop_.load(std::memory_order_relaxed)) {
      idle_cv_.wait_until(lk, deadline, [&] {
        return epoch_.load(std::memory_order_relaxed) != seen ||
               stop_.load(std::memory_order_relaxed);
      });
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void WorkStealingPool::join(Task* t) {
  assert(tls_binding.pool == this);
  const unsigned self = tls_binding.id;
  auto& deque = workers_[self]->deque;
  while (!t->finished()) {
    // Help first: drain our own deque (descendants of the current frame),
    // then steal; block only when the whole machine is out of work.  The
    // kPopOrder fault inverts that preference for one round -- stealing
    // (FIFO, coarse tasks) before popping (LIFO, own descendants) is the
    // schedule a busy-stolen pool produces naturally, just made frequent.
    if (fault::inject(plan(), fault::InjectSite::kPopOrder)) {
      if (Task* s = try_steal(self)) {
        execute(s);
        continue;
      }
    }
    if (Task* w = deque.pop_bottom()) {
      execute(w);
      continue;
    }
    if (Task* s = try_steal(self)) {
      execute(s);
      continue;
    }
    t->mark_awaited();
    idle_block([&] { return t->finished() || have_stealable(); });
  }
}

bool WorkStealingPool::join_interruptible(
    Task* t, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& quit) {
  assert(tls_binding.pool == this);
  const unsigned self = tls_binding.id;
  auto& deque = workers_[self]->deque;
  const auto interrupted = [&] {
    return (quit && quit()) || std::chrono::steady_clock::now() >= deadline;
  };
  while (!t->finished()) {
    // Same help loop as join(), but the quit predicate and deadline are
    // re-polled between tasks so a dispatcher parked here can resume its
    // watchdog/admission duties without waiting for `t`.
    if (interrupted()) return t->finished();
    if (fault::inject(plan(), fault::InjectSite::kPopOrder)) {
      if (Task* s = try_steal(self)) {
        execute(s);
        continue;
      }
    }
    if (Task* w = deque.pop_bottom()) {
      execute(w);
      continue;
    }
    if (Task* s = try_steal(self)) {
      execute(s);
      continue;
    }
    t->mark_awaited();
    idle_block_until(deadline, [&] {
      return t->finished() || have_stealable() || (quit && quit());
    });
  }
  return true;
}

void WorkStealingPool::kick() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
}

void WorkStealingPool::worker_main(unsigned id) {
  // Round-robin core pinning for the scaling protocol: worker i on core
  // i % ncores, the same layout bench_wallclock pins the caller (worker 0)
  // to.  Best-effort -- a failed syscall leaves the thread floating.
  if (pinned_) pin_current_thread(id);
  tls_binding = TlsBinding{this, id};
  auto& deque = workers_[id]->deque;
  for (;;) {
    if (fault::inject(plan(), fault::InjectSite::kPopOrder)) {
      if (Task* s = try_steal(id)) {
        execute(s);
        continue;
      }
    }
    if (Task* w = deque.pop_bottom()) {
      execute(w);
      continue;
    }
    if (Task* s = try_steal(id)) {
      execute(s);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    idle_block([&] { return have_stealable(); });
  }
}

namespace {

/// Stack-resident task wrapping a borrowed std::function.  Forking one
/// moves a pointer; nothing is copied or allocated.
struct FnTask : Task {
  explicit FnTask(const std::function<void()>* f)
      : Task(&FnTask::invoke), fn(f) {}
  // Poison check at the leaf boundary: a cancelled tree's forked bodies
  // become no-ops, but the task itself still completes so joins drain.
  static void invoke(Task* t) {
    if (detail::cancel_pending()) return;
    (*static_cast<FnTask*>(t)->fn)();
  }
  const std::function<void()>* fn;
};

/// Binary fork/join over tasks[lo, hi): forks the upper half, recurses into
/// the lower, joins.  Stack depth is O(log n); every frame's forked task
/// outlives its join.
void run_all_rec(WorkStealingPool& pool,
                 const std::vector<std::function<void()>>& tasks,
                 std::size_t lo, std::size_t hi) {
  if (detail::cancel_pending()) return;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    struct HalfTask : Task {
      HalfTask(WorkStealingPool& p,
               const std::vector<std::function<void()>>& ts, std::size_t l,
               std::size_t h)
          : Task(&HalfTask::invoke), pool(&p), tasks(&ts), lo_(l), hi_(h) {}
      static void invoke(Task* t) {
        auto* h = static_cast<HalfTask*>(t);
        run_all_rec(*h->pool, *h->tasks, h->lo_, h->hi_);
      }
      WorkStealingPool* pool;
      const std::vector<std::function<void()>>* tasks;
      std::size_t lo_, hi_;
    } upper(pool, tasks, mid, hi);
    pool.fork(&upper);
    run_all_rec(pool, tasks, lo, mid);
    pool.join(&upper);
    return;
  }
  if (hi > lo) tasks[lo]();
}

}  // namespace

void WorkStealingPool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1 || nworkers_ == 1) {
    for (auto& t : tasks) t();
    return;
  }
  struct RootTask : Task {
    RootTask(WorkStealingPool& p, const std::vector<std::function<void()>>& ts)
        : Task(&RootTask::invoke), pool(&p), tasks(&ts) {}
    static void invoke(Task* t) {
      auto* r = static_cast<RootTask*>(t);
      run_all_rec(*r->pool, *r->tasks, 0, r->tasks->size());
    }
    WorkStealingPool* pool;
    const std::vector<std::function<void()>>* tasks;
  } root(*this, tasks);
  run_root(root);
}

// ---------------------------------------------------------------------------
// SharedQueuePool (legacy baseline; behavior preserved from the original
// ThreadPool so bench_wallclock measures the pre-rewrite scheduler)
// ---------------------------------------------------------------------------

struct SharedQueuePool::Group {
  std::atomic<std::size_t> pending{0};
};

SharedQueuePool::SharedQueuePool(unsigned threads) {
  if (threads == 0) threads = 1;
  // The calling thread participates, so spawn threads-1 workers.
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SharedQueuePool::~SharedQueuePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void SharedQueuePool::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    item.fn();
    item.group->pending.fetch_sub(1, std::memory_order_acq_rel);
  }
}

bool SharedQueuePool::try_run_one() {
  Item item;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    item = std::move(queue_.front());
    queue_.pop_front();
  }
  item.fn();
  item.group->pending.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void SharedQueuePool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  Group group;
  group.pending.store(tasks.size() - 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      queue_.push_back(Item{std::move(tasks[i]), &group});
    }
  }
  cv_.notify_all();
  tasks[0]();  // run the first task inline
  // Help-first waiting: execute pending items (possibly from unrelated
  // groups -- they only shorten the wait) until our group drains.
  while (group.pending.load(std::memory_order_acquire) != 0) {
    if (!try_run_one()) std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// NativeExecutor
// ---------------------------------------------------------------------------

namespace {

using RangeBody = std::function<void(std::uint64_t, std::uint64_t)>;

/// How a RangeTask loop may split.  `grain` is the sequential chunk,
/// `floor` the smallest half worth exposing, and `align` the granularity
/// of the split point: simd::kMaxLaneWords for iteration ranges (cgc_pfor),
/// so stolen halves start lane-aligned for the simd:: kernels, and 1 for
/// subtask counts (cgc_sb_pfor), where lanes mean nothing and a binary
/// CGC=>SB fan-out must still split.  Built only by make_split(), which
/// establishes the invariant floor >= align >= 1: a range of at least
/// 2*floor then always splits into two non-empty halves.
struct RangeSplit {
  std::uint64_t grain, floor, align;

  std::uint64_t mid(std::uint64_t lo, std::uint64_t hi) const {
    return lo + (hi - lo) / 2 / align * align;
  }
};

/// Split policy for a loop of `total` units: fine enough for 8x
/// over-decomposition per *core*, never finer than the grain or the
/// alignment.  The divisor is clamped by hardware_concurrency: requesting
/// more threads than cores cannot raise real parallelism, only the number
/// of leaves each oversubscribed thief fragments off (every steal = futex
/// wake + context switch on a saturated machine), so extra decomposition
/// slack for them is pure overhead.
RangeSplit make_split(std::uint64_t total, std::uint64_t grain,
                      unsigned threads, std::uint64_t align) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned effective = std::min(threads, cores);
  const std::uint64_t floor =
      std::max<std::uint64_t>({grain, align, total / (8ull * effective)});
  return RangeSplit{grain, floor, align};
}

/// Lazy binary splitting (the parlay idiom): peel grain-sized chunks off a
/// range sequentially, and only when the local deque has been emptied by
/// thieves split the remainder in half and expose the upper half.  Forked
/// halves live on this frame's stack; recursion depth is O(log(range/floor)).
///
/// `split.floor` is the smallest half worth exposing.  Without it the
/// empty-deque signal degenerates: a *stolen* range always starts with an
/// empty thief deque, so every steal would immediately re-split,
/// fragmenting the loop all the way down to `grain` no matter how many
/// workers exist.  make_split sets floor ~ range/(8*threads), which caps a
/// loop at ~16*threads leaf tasks -- 8x finer than eager per-thread
/// chunking (ample slack for rebalancing) but bounded fork/notify overhead.
void range_run(WorkStealingPool& pool, const RangeBody& body, std::uint64_t lo,
               std::uint64_t hi, const RangeSplit& split);

struct RangeTask : Task {
  RangeTask(WorkStealingPool& p, const RangeBody& b, std::uint64_t l,
            std::uint64_t h, const RangeSplit& s)
      : Task(&RangeTask::invoke), pool(&p), body(&b), lo(l), hi(h), split(&s) {}
  static void invoke(Task* t) {
    auto* r = static_cast<RangeTask*>(t);
    range_run(*r->pool, *r->body, r->lo, r->hi, *r->split);
  }
  WorkStealingPool* pool;
  const RangeBody* body;
  std::uint64_t lo, hi;
  const RangeSplit* split;  ///< owned by the root call's frame
};

void range_run(WorkStealingPool& pool, const RangeBody& body, std::uint64_t lo,
               std::uint64_t hi, const RangeSplit& split) {
  for (;;) {
    // Poison check once per grain: the promptness bound for cancellation
    // is therefore one sequential grain of leaf work (plus whatever chunk
    // is already in flight on other workers -- each of which does this
    // same check).  This covers freshly stolen RangeTasks too: their
    // invoke() lands here before touching the body.
    if (detail::cancel_pending()) return;
    if (hi - lo <= split.grain) {
      body(lo, hi);
      return;
    }
    if (hi - lo >= 2 * split.floor && pool.local_deque_empty()) {
      // A thief (or an idle worker) drained us: expose the upper half.
      const std::uint64_t mid = split.mid(lo, hi);
      RangeTask upper(pool, body, mid, hi, split);
      if constexpr (obs::kTracingCompiledIn) {
        if (obs::Histogram* h = pool.fork_grain_hist()) h->record(hi - mid);
      }
      pool.fork(&upper);
      range_run(pool, body, lo, mid, split);
      pool.join(&upper);
      return;
    }
    // Parallel slack already queued (or the remainder is below the split
    // floor): run one grain and re-check demand.
    body(lo, lo + split.grain);
    lo += split.grain;
  }
}

}  // namespace

NativeExecutor::NativeExecutor(unsigned threads,
                               std::uint64_t sequential_grain_words,
                               SchedMode mode)
    : grain_(std::max<std::uint64_t>(1, sequential_grain_words)) {
  if (threads > kMaxThreads) {
    throw Error(ErrorCode::kUnsupported,
                "NativeExecutor: " + std::to_string(threads) +
                    " worker threads requested; the implementation caps at " +
                    std::to_string(kMaxThreads));
  }
  const unsigned t = threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : threads;
  if (mode == SchedMode::kAuto) {
    const char* env = std::getenv("OBLIV_SCHED");
    mode = (env != nullptr && std::strcmp(env, "sharedq") == 0)
               ? SchedMode::kSharedQueue
               : SchedMode::kWorkSteal;
  }
  if (mode == SchedMode::kSharedQueue) {
    sq_ = std::make_unique<SharedQueuePool>(t);
  } else {
    ws_ = std::make_unique<WorkStealingPool>(t);
  }
}

Result<NativeExecutor> NativeExecutor::make(unsigned threads,
                                            std::uint64_t sequential_grain_words,
                                            SchedMode mode) noexcept {
  try {
    return NativeExecutor(threads, sequential_grain_words, mode);
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed during executor setup");
  } catch (const std::system_error& e) {
    return Status::error(ErrorCode::kResourceExhausted,
                         std::string("thread spawn failed: ") + e.what());
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

void NativeExecutor::cgc_pfor(
    std::uint64_t lo, std::uint64_t hi, std::uint64_t words_per_iter,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (hi <= lo) return;
  // CGC anchor point: a poisoned tree issues no further loop work.
  if (detail::cancel_pending()) return;
  const std::uint64_t t = hi - lo;
  const std::uint64_t wpi = std::max<std::uint64_t>(1, words_per_iter);
  // Keep segments at or above the grain so fork overhead stays negligible --
  // the native analogue of the B_1 lower bound on CGC segment length.  The
  // lane clamp keeps every leaf at least one vector stride wide so the
  // simd:: kernels never degenerate to all-tail chunks.
  const std::uint64_t min_iters = std::max<std::uint64_t>(
      simd::kMaxLaneWords, grain_ / wpi);
  if (threads() == 1 || t <= min_iters) {
    body(lo, hi);  // single chunk: no queue round-trip, no task storage
    return;
  }
  if (sq_) {
    const std::uint64_t chunks = std::max<std::uint64_t>(
        1,
        std::min<std::uint64_t>(sq_->threads(), util::ceil_div(t, min_iters)));
    if (chunks == 1) {
      body(lo, hi);
      return;
    }
    const std::uint64_t base_len = util::ceil_div(t, chunks);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (std::uint64_t start = lo; start < hi; start += base_len) {
      const std::uint64_t end = std::min(hi, start + base_len);
      tasks.push_back([&body, start, end] { body(start, end); });
    }
    sq_->run_all(std::move(tasks));
    return;
  }
  const RangeSplit split =
      make_split(t, min_iters, ws_->threads(), simd::kMaxLaneWords);
  RangeTask root(*ws_, body, lo, hi, split);
  ws_->run_root(root);
}

void NativeExecutor::cgc_pfor_each(
    std::uint64_t lo, std::uint64_t hi, std::uint64_t words_per_iter,
    const std::function<void(std::uint64_t)>& body) {
  cgc_pfor(lo, hi, words_per_iter, [&body](std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t k = a; k < b; ++k) body(k);
  });
}

void NativeExecutor::sb_parallel(std::vector<SbTask> tasks) {
  if (tasks.empty()) return;
  if (detail::cancel_pending()) return;
  // Space bound as steal cut-off: small tasks are not worth forking.
  bool all_small = true;
  for (const auto& task : tasks) {
    if (task.space_words > grain_) {
      all_small = false;
      break;
    }
  }
  if (all_small || threads() == 1) {
    for (auto& task : tasks) task.body();
    return;
  }
  if (sq_) {
    std::vector<std::function<void()>> fns;
    fns.reserve(tasks.size());
    for (auto& task : tasks) fns.push_back(std::move(task.body));
    sq_->run_all(std::move(fns));
    return;
  }
  // Fork every above-grain task (LIFO join order); below-grain tasks run on
  // the forking core -- they are anchored at the private cache and never
  // made stealable.  Linear recursion keeps each forked Task alive on the
  // stack until its join; sb_parallel fan-outs are small (quadrant forks).
  struct SbRun : Task {
    SbRun(WorkStealingPool& p, std::vector<SbTask>& ts, std::uint64_t g)
        : Task(&SbRun::invoke), pool(&p), tasks(&ts), grain(g) {}
    static void invoke(Task* t) {
      auto* r = static_cast<SbRun*>(t);
      r->run_from(0);
    }
    void run_from(std::size_t i) {
      if (i == tasks->size()) return;
      // SB anchor point: poisoned trees stop issuing bodies but keep the
      // fork/join ladder intact (already-forked FnTasks no-op themselves).
      if (detail::cancel_pending()) return;
      SbTask& cur = (*tasks)[i];
      if (cur.space_words > grain) {
        FnTask forked(&cur.body);
        pool->fork(&forked);
        run_from(i + 1);
        pool->join(&forked);
      } else {
        cur.body();
        run_from(i + 1);
      }
    }
    WorkStealingPool* pool;
    std::vector<SbTask>* tasks;
    std::uint64_t grain;
  } root(*ws_, tasks, grain_);
  ws_->run_root(root);
}

void NativeExecutor::sb_parallel2(std::uint64_t space1,
                                  const std::function<void()>& f1,
                                  std::uint64_t space2,
                                  const std::function<void()>& f2) {
  if (detail::cancel_pending()) return;
  if (threads() == 1 || (space1 <= grain_ && space2 <= grain_)) {
    f1();
    f2();
    return;
  }
  if (sq_) {
    std::vector<SbTask> tasks;
    tasks.push_back(SbTask{space1, f1});
    tasks.push_back(SbTask{space2, f2});
    sb_parallel(std::move(tasks));
    return;
  }
  // The recursive fork/join hot path: one stack Task, zero allocations.
  struct Pair2 : Task {
    Pair2(WorkStealingPool& p, const std::function<void()>& a,
          const std::function<void()>& b, bool fork_second)
        : Task(&Pair2::invoke), pool(&p), fa(&a), fb(&b), fork_b(fork_second) {}
    static void invoke(Task* t) {
      auto* r = static_cast<Pair2*>(t);
      if (detail::cancel_pending()) return;
      const std::function<void()>& forked = r->fork_b ? *r->fb : *r->fa;
      const std::function<void()>& inline_fn = r->fork_b ? *r->fa : *r->fb;
      FnTask child(&forked);
      r->pool->fork(&child);
      // Re-check after the fork: kCancelPoison may have landed exactly
      // there, and skipping the inline half keeps both halves symmetric
      // under poison (the forked FnTask no-ops on its own).
      if (!detail::cancel_pending()) inline_fn();
      r->pool->join(&child);
    }
    WorkStealingPool* pool;
    const std::function<void()>* fa;
    const std::function<void()>* fb;
    bool fork_b;
  // Fork whichever side is above the grain (prefer the second so the first
  // runs in program order on this core); a below-grain sibling stays local.
  } root(*ws_, f1, f2, /*fork_second=*/space2 > grain_);
  ws_->run_root(root);
}

void NativeExecutor::cgc_sb_pfor(
    std::uint64_t count, std::uint64_t space_words,
    const std::function<void(std::uint64_t)>& body) {
  if (count == 0) return;
  if (detail::cancel_pending()) return;
  // CGC=>SB: `count` equal subtasks of `space_words` each.  Natively the
  // space bound sets the steal granularity -- at least ceil(grain/space)
  // subtasks per stealable unit, so a batch always covers one private
  // cache's worth of data (the anchoring analogue).
  const std::uint64_t per_unit =
      std::max<std::uint64_t>(1, grain_ / std::max<std::uint64_t>(1, space_words));
  if (threads() == 1 || count <= per_unit) {
    for (std::uint64_t s = 0; s < count; ++s) body(s);
    return;
  }
  if (sq_) {
    if (space_words <= grain_) {
      // Batch subtasks per thread to keep fork overhead sublinear.
      const std::uint64_t chunks =
          std::min<std::uint64_t>(sq_->threads(), count);
      const std::uint64_t per = util::ceil_div(count, chunks);
      std::vector<std::function<void()>> tasks;
      for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t s_lo = c * per;
        const std::uint64_t s_hi = std::min(count, (c + 1) * per);
        if (s_lo >= s_hi) break;
        tasks.push_back([&body, s_lo, s_hi] {
          for (std::uint64_t s = s_lo; s < s_hi; ++s) body(s);
        });
      }
      sq_->run_all(std::move(tasks));
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::uint64_t s = 0; s < count; ++s) {
      tasks.push_back([&body, s] { body(s); });
    }
    sq_->run_all(std::move(tasks));
    return;
  }
  const RangeBody range_body = [&body](std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t s = a; s < b; ++s) body(s);
  };
  const RangeSplit split =
      make_split(count, per_unit, ws_->threads(), /*align=*/1);
  RangeTask root(*ws_, range_body, 0, count, split);
  ws_->run_root(root);
}

}  // namespace obliv::sched
