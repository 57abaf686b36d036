#include "serve/serve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <deque>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "algo/gep.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "fault/fault.hpp"
#include "sched/views.hpp"
#include "workload/kinds.hpp"

namespace obliv::serve {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

Status invalid(const std::string& what) {
  return Status::error(ErrorCode::kInvalidArgument, what);
}

/// A view is well-formed when it is empty or carries real memory.
template <class T>
bool view_ok(const sched::NatRef<T>& r) {
  return r.size() == 0 || r.raw() != nullptr;
}

/// Steady-clock nanoseconds since the (arbitrary) epoch.  Used for poison
/// timestamps and queue-wait samples; comparable only with itself.
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string_view family_name(Family f) {
  return static_cast<std::size_t>(f) < kFamilies
             ? workload::name(static_cast<workload::Kind>(f))
             : "unknown";
}

Family family_of(const Request& req) {
  return std::visit(
      Overloaded{
          [](const ScanRequest&) { return Family::kScan; },
          [](const SortRequest&) { return Family::kSort; },
          [](const FftRequest&) { return Family::kFft; },
          [](const TransposeRequest&) { return Family::kTranspose; },
          [](const GepRequest&) { return Family::kGep; },
          [](const ListRankRequest&) { return Family::kListRank; },
          [](const SpmdvRequest&) { return Family::kSpmdv; },
      },
      req);
}

namespace {

/// The request's size argument n to workload::size_ok and
/// workload::space_words.
std::uint64_t request_size(const Request& req) {
  return std::visit(
      Overloaded{
          [](const ScanRequest& r) -> std::uint64_t { return r.data.size(); },
          [](const SortRequest& r) -> std::uint64_t { return r.keys.size(); },
          [](const FftRequest& r) -> std::uint64_t { return r.data.size(); },
          [](const TransposeRequest& r) -> std::uint64_t { return r.n; },
          [](const GepRequest& r) -> std::uint64_t { return r.n; },
          [](const ListRankRequest& r) -> std::uint64_t {
            return r.succ.size();
          },
          [](const SpmdvRequest& r) -> std::uint64_t { return r.y.size(); },
      },
      req);
}

}  // namespace

Status validate(const Request& req) {
  // The size rule first: the shape checks below multiply n by itself.
  const auto kind = static_cast<workload::Kind>(family_of(req));
  const std::uint64_t n = request_size(req);
  if (!workload::size_ok(kind, n)) {
    return invalid(std::string(workload::name(kind)) + ": size " +
                   std::to_string(n) + " rejected, it must be " +
                   std::string(workload::size_rule(kind)));
  }
  return std::visit(
      Overloaded{
          [](const ScanRequest& r) {
            if (!view_ok(r.data)) return invalid("scan: null data view");
            return Status();
          },
          [](const SortRequest& r) {
            if (!view_ok(r.keys)) return invalid("sort: null key view");
            return Status();
          },
          [](const FftRequest& r) {
            if (!view_ok(r.data)) return invalid("fft: null data view");
            return Status();
          },
          [](const TransposeRequest& r) {
            if (!view_ok(r.in) || !view_ok(r.out)) {
              return invalid("transpose: null matrix view");
            }
            if (r.n == 0) return Status();
            if (r.in.size() < r.n * r.n || r.out.size() < r.n * r.n) {
              return invalid("transpose: views shorter than n*n");
            }
            if (r.in.raw() == r.out.raw()) {
              return invalid("transpose: in and out may not alias");
            }
            return Status();
          },
          [](const GepRequest& r) {
            if (!view_ok(r.matrix)) return invalid("gep: null matrix view");
            if (r.n != 0 && r.matrix.size() < r.n * r.n) {
              return invalid("gep: view shorter than n*n");
            }
            return Status();
          },
          [](const ListRankRequest& r) {
            if (!view_ok(r.succ) || !view_ok(r.pred) || !view_ok(r.dist)) {
              return invalid("listrank: null view");
            }
            if (r.succ.size() != r.pred.size() ||
                r.succ.size() != r.dist.size()) {
              return invalid("listrank: succ/pred/dist lengths differ");
            }
            return Status();
          },
          [](const SpmdvRequest& r) {
            if (!view_ok(r.av) || !view_ok(r.a0) || !view_ok(r.x) ||
                !view_ok(r.y)) {
              return invalid("spmdv: null view");
            }
            const std::uint64_t rows = r.y.size();
            if (rows == 0) return Status();
            if (r.a0.size() != rows + 1) {
              return invalid("spmdv: a0 must hold y.size()+1 offsets");
            }
            if (r.x.size() < rows) {
              return invalid("spmdv: x shorter than the row count");
            }
            // Cheap endpoint checks; per-row monotonicity is the caller's
            // contract (validating it would read the whole offset array).
            if (r.a0.load(0) != 0 || r.a0.load(rows) > r.av.size()) {
              return invalid("spmdv: a0 endpoints inconsistent with av");
            }
            return Status();
          },
      },
      req);
}

std::uint64_t space_estimate_words(const Request& req) {
  const auto* spmdv = std::get_if<SpmdvRequest>(&req);
  return workload::space_words(static_cast<workload::Kind>(family_of(req)),
                               request_size(req),
                               spmdv != nullptr ? spmdv->av.size() : 0);
}

namespace {

/// Runs the validated request on the shared executor.  Zero-size requests
/// are a no-op by definition (nothing to compute, nothing to write).
void execute_request(sched::NativeExecutor& ex, const Request& req) {
  std::visit(
      Overloaded{
          [&](const ScanRequest& r) {
            if (r.data.size() != 0) algo::mo_prefix_sum(ex, r.data);
          },
          [&](const SortRequest& r) {
            if (r.keys.size() != 0) algo::spms_sort(ex, r.keys);
          },
          [&](const FftRequest& r) {
            if (r.data.size() != 0) algo::mo_fft(ex, r.data);
          },
          [&](const TransposeRequest& r) {
            if (r.n != 0) algo::mo_transpose(ex, r.in, r.out, r.n);
          },
          [&](const GepRequest& r) {
            if (r.n != 0) {
              using Mat = sched::MatView<sched::NatRef<double>>;
              algo::igep<algo::FloydWarshallInstance>(
                  ex, Mat::full(r.matrix, r.n, r.n));
            }
          },
          [&](const ListRankRequest& r) {
            if (r.succ.size() != 0) {
              algo::mo_list_rank(ex, r.succ, r.pred, r.dist);
            }
          },
          [&](const SpmdvRequest& r) {
            if (r.y.size() != 0) algo::mo_spmdv(ex, r.av, r.a0, r.x, r.y);
          },
      },
      req);
}

}  // namespace

// ---------------------------------------------------------------------------
// Core
// ---------------------------------------------------------------------------

namespace detail {

struct Core : std::enable_shared_from_this<Core> {
  /// One waiting job: everything needed to run it once admitted.
  struct Entry {
    std::shared_ptr<JobState> st;
    Request req;
    std::uint64_t submit_ns = 0;  ///< tracer clock at submit (0 = untraced)
    /// Steady-clock submit time; always stamped (feeds the overload-shed
    /// wait window even when no tracer is attached).
    std::chrono::steady_clock::time_point submit_tp{};
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  /// A client-thread trace event, parked until a ring-owning thread can
  /// emit it.  TraceRing is single-producer per ring; client threads own
  /// none, so submit() queues shed events here under mu_ and the
  /// dispatcher (or publish_counters, post-join) drains them onto ring 0.
  struct PendingEvent {
    Family family;
    std::uint64_t a, b, c;
  };

  /// One admitted job: a heap-held sibling task tree on the shared pool.
  /// The pool only moves the Task* around; the Entry payload rides along.
  struct Job : sched::Task {
    Job(Core* c, Entry e)
        : Task(&Job::run_static), core(c), entry(std::move(e)) {}

    static void run_static(sched::Task* t) {
      static_cast<Job*>(t)->run_job();
    }

    void run_job() {
      JobState& st = *entry.st;
      // Visible-before the first poison check inside the body: once begun
      // reads true, cancel() targets a *running* tree.
      st.begun.store(true, std::memory_order_release);
      obs::Tracer* tracer = core->tracer_;
      const std::uint64_t wait_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - entry.submit_tp)
              .count());
      core->record_wait(wait_ns);
      std::uint64_t begin_ns = 0;
      if (tracer != nullptr) {
        begin_ns = tracer->now();
        const int wid = core->pool_->this_worker_id();
        const std::uint32_t ring =
            static_cast<std::uint32_t>(wid < 0 ? 0 : wid) %
            tracer->ring_count();
        tracer->emit(ring, obs::EventKind::kJobBegin,
                     static_cast<std::uint8_t>(st.family), obs::kServeLane,
                     st.seq, wait_ns, 0);
        if (core->wait_hist_ != nullptr) core->wait_hist_->record(wait_ns);
      }
      // Install the job's cancel token for the whole tree: fork() inherits
      // it into every descendant, and every fork/steal/anchor point checks
      // it.  A poison (cancel or running-deadline) makes the remaining
      // tree skip its work while keeping the fork/join structure intact.
      Status result;
      {
        sched::ScopedCancelToken guard(&st.token);
        // Per-job fault isolation: a failing job surfaces a typed Status
        // and leaves the server and its sibling jobs untouched.
        try {
          execute_request(core->ex_, entry.req);
        } catch (const Error& e) {
          result = Status::error(e.code(), e.what());
        } catch (const std::bad_alloc&) {
          result = Status::error(ErrorCode::kResourceExhausted,
                                 "job allocation failed");
        } catch (const std::exception& e) {
          result = Status::error(ErrorCode::kInternal,
                                 std::string("job raised: ") + e.what());
        }
      }
      core->finish_job(*this, std::move(result), begin_ns, tracer);
      // The dispatcher reaps this Job (and releases its space, if a poison
      // path has not already) after the pool's completion handshake;
      // `this` stays valid until then.
    }

    Core* core;
    Entry entry;
    /// Space budget already returned (poison paths release early; reap
    /// releases otherwise).  Guarded by mu_.
    bool space_released = false;
  };

  explicit Core(const ServerOptions& opts)
      : opts_(opts),
        ex_(opts.threads, opts.sequential_grain_words),
        pool_(ex_.steal_pool()) {}

  ~Core() { shutdown(); }

  /// Flips a job's (done, status) exactly once and wakes its waiters.
  static void complete(JobState& st, Status status) {
    {
      std::lock_guard<std::mutex> lk(st.mu);
      assert(!st.done);
      st.done = true;
      st.status = std::move(status);
    }
    st.cv.notify_all();
  }

  /// Terminal bookkeeping for a job that *ran* (queued-path completions go
  /// through complete() directly).  Fuses the body's result with any
  /// poison that landed mid-run, publishes the final status, and drives
  /// the outcome counters off that final status, so accounting stays
  /// exactly-once: completed_ok + failed + cancelled + deadline_exceeded
  /// covers every job that reached a terminal state.  Runs on whichever
  /// worker executed the job.
  void finish_job(Job& job, Status result, std::uint64_t begin_ns,
                  obs::Tracer* tracer) {
    JobState& st = *job.entry.st;
    sched::CancelToken::Reason reason;
    Status final_status;
    {
      // Fused with the poison sites under st.mu: a cancel() that returned
      // true either poisoned before this read or observed done == true
      // and returned false, so "cancel() == true implies the final status
      // is kCancelled" holds exactly (same for the watchdog and
      // kDeadlineExceeded).
      std::lock_guard<std::mutex> lk(st.mu);
      reason = st.token.reason();
      if (reason == sched::CancelToken::Reason::kCancelled) {
        final_status = Status::error(
            ErrorCode::kCancelled,
            "job cancelled while running; output buffers unspecified");
      } else if (reason == sched::CancelToken::Reason::kDeadline) {
        final_status = Status::error(
            ErrorCode::kDeadlineExceeded,
            "deadline expired while the job was running; output buffers "
            "unspecified");
      } else {
        final_status = std::move(result);
      }
      assert(!st.done);
      st.done = true;
      st.status = final_status;
    }
    st.cv.notify_all();
    switch (final_status.code()) {
      case ErrorCode::kOk:
        completed_ok_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ErrorCode::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        cancelled_running_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ErrorCode::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        deadline_exceeded_running_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    // Poison-to-completion latency: how long the tree took to unwind after
    // the poison landed (the promptness the cancellation protocol bounds
    // by one fork/steal/anchor interval plus one leaf grain).
    std::uint64_t poison_lat_ns = 0;
    if (reason != sched::CancelToken::Reason::kNone) {
      const std::uint64_t now_ns = steady_now_ns();
      const std::uint64_t poisoned_at = st.token.poison_ns();
      poison_lat_ns = now_ns > poisoned_at ? now_ns - poisoned_at : 0;
      if (poison_hist_ != nullptr) poison_hist_->record(poison_lat_ns);
    }
    if (tracer != nullptr) {
      const std::uint64_t end_ns = tracer->now();
      const int wid = pool_->this_worker_id();
      const std::uint32_t ring =
          static_cast<std::uint32_t>(wid < 0 ? 0 : wid) % tracer->ring_count();
      const std::uint64_t run_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
      tracer->emit(ring, obs::EventKind::kJobEnd,
                   static_cast<std::uint8_t>(st.family), obs::kServeLane,
                   st.seq, run_ns,
                   static_cast<std::uint64_t>(final_status.code()));
      if (reason != sched::CancelToken::Reason::kNone) {
        tracer->emit(ring, obs::EventKind::kJobCancel,
                     static_cast<std::uint8_t>(st.family), obs::kServeLane,
                     st.seq, poison_lat_ns,
                     static_cast<std::uint64_t>(reason));
      }
      if (run_hist_ != nullptr) run_hist_->record(run_ns);
    }
  }

  /// Records one queue-wait sample into the sliding shed window.  Writers
  /// are executing workers; the reader is submit() under mu_.  Each slot
  /// is individually atomic, so a torn *set* of samples is possible but a
  /// torn sample is not -- acceptable for an overload heuristic.
  void record_wait(std::uint64_t ns) {
    const std::uint64_t i = wait_seq_.fetch_add(1, std::memory_order_relaxed);
    recent_wait_ns_[i % kWaitWindow].store(ns == 0 ? 1 : ns,
                                           std::memory_order_relaxed);
  }

  /// Nearest-rank p99 over the recorded window; 0 until shed_min_samples
  /// samples exist (no shedding before the server has evidence).
  std::uint64_t recent_wait_p99_ns() const {
    const std::uint64_t seen = wait_seq_.load(std::memory_order_relaxed);
    const std::uint64_t min_n = std::min<std::uint64_t>(
        std::max<std::uint32_t>(1, opts_.shed_min_samples), kWaitWindow);
    if (seen < min_n) return 0;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(seen, kWaitWindow));
    std::array<std::uint64_t, kWaitWindow> snap;
    for (std::size_t i = 0; i < n; ++i) {
      snap[i] = recent_wait_ns_[i].load(std::memory_order_relaxed);
    }
    std::sort(snap.begin(), snap.begin() + n);
    const std::size_t rank = std::max<std::size_t>(1, (n * 99 + 99) / 100);
    return snap[rank - 1];
  }

  /// Returns a job's budget exactly once.  Poison paths call this the
  /// moment a job is condemned -- before its tree finishes unwinding --
  /// so queued admissions unblock promptly; reap covers the normal path.
  /// Called with mu_ held.
  void release_space_locked(Job& j) {
    if (j.space_released) return;
    j.space_released = true;
    assert(used_words_ >= j.entry.st->est_words);
    used_words_ -= j.entry.st->est_words;
  }

  void start_dispatcher() {
    dispatcher_ = std::thread([self = shared_from_this()] {
      struct ServiceRoot : sched::Task {
        explicit ServiceRoot(Core* c) : Task(&ServiceRoot::run_static),
                                        core(c) {}
        static void run_static(sched::Task* t) {
          static_cast<ServiceRoot*>(t)->core->dispatch();
        }
        Core* core;
      } root(self.get());
      // One run_root for the server's lifetime: the dispatcher holds the
      // pool's external-entry slot (worker 0) and forks every admitted job
      // from inside it, so jobs are siblings and nested constructs take
      // the mutex-free worker path.
      self->pool_->run_root(root);
    });
  }

  Result<JobHandle> submit(const Request& req, const JobOptions& jopts) {
    const Status v = validate(req);
    if (!v.ok()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return v;
    }
    const std::uint64_t est = space_estimate_words(req);
    if (est > opts_.space_budget_words) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::error(
          ErrorCode::kResourceExhausted,
          "request working set (" + std::to_string(est) +
              " words) exceeds the server space budget (" +
              std::to_string(opts_.space_budget_words) + ")");
    }
    auto st = std::make_shared<JobState>();
    st->family = family_of(req);
    st->est_words = est;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::error(ErrorCode::kUnavailable,
                             "server is draining; submit rejected");
      }
      // Overload control, ahead of the hard capacity wall: when there is
      // already a backlog AND the recent queue-wait p99 exceeds the
      // configured threshold, shed with a typed kUnavailable carrying a
      // retry-after hint.  The backlog guard makes recovery automatic --
      // an empty queue always accepts, which refreshes the wait window.
      if (opts_.shed_wait_p99_ns > 0 && !queue_.empty()) {
        const std::uint64_t p99 = recent_wait_p99_ns();
        if (p99 > opts_.shed_wait_p99_ns) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t hint_ms = std::clamp<std::uint64_t>(
              p99 / 1'000'000, 1, 1000);
          if (tracer_ != nullptr) {
            pending_events_.push_back(
                PendingEvent{family_of(req), 0, p99, hint_ms});
          }
          return Status::error(
              ErrorCode::kUnavailable,
              "server overloaded: recent queue-wait p99 (" +
                  std::to_string(p99) +
                  " ns) exceeds the shed threshold; retry_after_ms=" +
                  std::to_string(hint_ms));
        }
      }
      if (queue_.size() >= opts_.queue_capacity) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::error(
            ErrorCode::kResourceExhausted,
            "admission queue full (" +
                std::to_string(opts_.queue_capacity) + " waiting jobs)");
      }
      st->seq = next_seq_++;
      Entry e;
      e.st = st;
      e.req = req;
      e.submit_tp = std::chrono::steady_clock::now();
      if (tracer_ != nullptr) e.submit_ns = tracer_->now();
      if (jopts.deadline.has_value()) {
        e.has_deadline = true;
        e.deadline = *jopts.deadline;
        // Arm the token too: workers executing the tree self-poison at
        // the next check site once the instant passes, so mid-run expiry
        // is enforced even while the dispatcher is swallowed helping this
        // very job (its nested joins block, so it cannot sweep).  The
        // dispatcher sweep remains the path for queued start-deadlines
        // and for returning the space budget promptly.
        st->token.arm_deadline(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                jopts.deadline->time_since_epoch())
                .count()));
      }
      queue_.push_back(std::move(e));
      queue_peak_ = std::max(queue_peak_, queue_.size());
      submitted_.fetch_add(1, std::memory_order_relaxed);
      update_gauges_locked();
      poke_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    // The dispatcher may be parked inside join_interruptible helping an
    // admitted job; kick the pool so its quit predicate (poke_) is
    // re-evaluated and the new arrival is considered for admission.
    pool_->kick();
    return JobHandle(shared_from_this(), std::move(st));
  }

  bool cancel(const std::shared_ptr<JobState>& st) {
    std::unique_lock<std::mutex> lk(mu_);
    // Queued: remove and complete directly; the job never ran.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->st == st) {
        queue_.erase(it);
        update_gauges_locked();
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        lk.unlock();
        complete(*st, Status::error(ErrorCode::kCancelled,
                                    "cancelled before admission"));
        return true;
      }
    }
    // Running (admitted, not yet reaped): poison the job's token so its
    // tree skips the rest of its work and unwinds.  Lock order mu_ ->
    // st.mu matches the running-deadline sweep; finish_job takes st.mu
    // alone, so there is no cycle.
    for (auto& j : inflight_) {
      if (j->entry.st != st) continue;
      {
        std::lock_guard<std::mutex> slk(st->mu);
        if (st->done) return false;  // finished before we got here
        const bool won =
            st->token.poison(sched::CancelToken::Reason::kCancelled);
        if (!won &&
            st->token.reason() != sched::CancelToken::Reason::kCancelled) {
          // The deadline watchdog poisoned first: the job's fate is
          // kDeadlineExceeded, not kCancelled, so this call did not
          // decide it.
          return false;
        }
      }
      // The fate is sealed as kCancelled (finish_job reads the token
      // under st.mu after us): release the budget now so queued work
      // admits without waiting for the tree to finish unwinding, and
      // poke the dispatcher to act on it.
      release_space_locked(*j);
      lk.unlock();
      poke_.store(true, std::memory_order_release);
      pool_->kick();
      cv_.notify_all();
      return true;
    }
    return false;  // already reaped => already complete
  }

  void shutdown() {
    std::call_once(shutdown_once_, [this] {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
      }
      cv_.notify_all();
      if (dispatcher_.joinable()) dispatcher_.join();
      publish_counters();
    });
  }

  ServerStats stats() const {
    ServerStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.cancelled_running = cancelled_running_.load(std::memory_order_relaxed);
    s.deadline_exceeded_running =
        deadline_exceeded_running_.load(std::memory_order_relaxed);
    s.space_budget_words = opts_.space_budget_words;
    std::lock_guard<std::mutex> lk(mu_);
    s.space_peak_words = space_peak_;
    s.queue_peak = queue_peak_;
    s.queue_depth = queue_.size();
    s.inflight = inflight_.size();
    return s;
  }

  void set_tracer(obs::Tracer* tracer) {
    // Under mu_: the dispatcher reads tracer_ in its loop (gauges,
    // admit events), so an unlocked write here races it even before the
    // first submit.  Jobs observe the pointers via the submit -> run
    // happens-before chain, so call this before submitting.
    std::lock_guard<std::mutex> lk(mu_);
    tracer_ = tracer;
    wait_hist_ = nullptr;
    run_hist_ = nullptr;
    poison_hist_ = nullptr;
    ex_.set_tracer(tracer);
    if (tracer != nullptr) {
      tracer->name_lane(obs::kServeLane, "serve jobs");
      // Pre-resolve histogram handles single-threaded; workers only
      // touch record(), which is a few relaxed atomics.  (Histogram
      // references are deque-backed and stable; plain counter items are
      // not, hence update_gauges_locked sets those by name.)
      wait_hist_ = &tracer->counters().histogram("serve.job.wait_ns");
      run_hist_ = &tracer->counters().histogram("serve.job.run_ns");
      poison_hist_ = &tracer->counters().histogram("serve.poison_latency_ns");
      update_gauges_locked();
    }
  }

  void set_fault_plan(fault::FaultPlan* plan) {
    plan_.store(plan, std::memory_order_release);
    ex_.set_fault_plan(plan);
  }

  // ---- dispatcher ---------------------------------------------------------

  void dispatch() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      drain_pending_events_locked();
      sweep_deadlines_locked();
      sweep_running_deadlines_locked();
      reap_locked();
      admit_locked();
      if (!inflight_.empty()) {
        Job* front = inflight_.front().get();
        const auto wake = next_deadline_locked();
        poke_.store(false, std::memory_order_relaxed);
        lk.unlock();
        // Help execute: the dispatcher drains its own deque (the admitted
        // jobs) and steals while it waits, so progress never depends on
        // spawned workers existing (this container may have one core).
        // The watchdog rides along: the join is interrupted at the
        // earliest pending deadline, or when a poke (submit or
        // cancel-running) needs admission attention -- no extra thread.
        pool_->join_interruptible(front, wake, [this] {
          return poke_.load(std::memory_order_relaxed);
        });
        lk.lock();
        reap_locked();
        continue;
      }
      if (queue_.empty()) {
        if (stopping_) break;
        cv_.wait(lk);
        continue;
      }
      // Unreachable: with nothing in flight every poison path has already
      // returned its budget (release_space_locked dedupes against reap),
      // so used_words_ is zero and admit_locked() always takes the queue
      // head (any accepted estimate fits an empty budget).
      assert(false && "serve dispatcher: queued job not admissible");
    }
    drain_pending_events_locked();
  }

  /// Earliest instant the watchdog must act: the soonest deadline over
  /// queued entries and running-not-yet-poisoned jobs.  Far future (now +
  /// 1h, deliberately finite so wait_until never overflows) when none.
  /// Called with mu_ held.
  std::chrono::steady_clock::time_point next_deadline_locked() const {
    auto wake = std::chrono::steady_clock::now() + std::chrono::hours(1);
    for (const auto& e : queue_) {
      if (e.has_deadline) wake = std::min(wake, e.deadline);
    }
    for (const auto& j : inflight_) {
      if (j->entry.has_deadline && !j->finished() &&
          !j->entry.st->token.poisoned()) {
        wake = std::min(wake, j->entry.deadline);
      }
    }
    return wake;
  }

  /// Completes (without running) every queued job whose start deadline has
  /// passed.  Called with mu_ held.
  void sweep_deadlines_locked() {
    if (queue_.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->has_deadline && it->deadline <= now) {
        std::shared_ptr<JobState> st = std::move(it->st);
        it = queue_.erase(it);
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        complete(*st, Status::error(ErrorCode::kDeadlineExceeded,
                                    "deadline passed before the job could "
                                    "start"));
      } else {
        ++it;
      }
    }
    update_gauges_locked();
  }

  /// Poisons every running job whose completion deadline has passed.  The
  /// tree skips its remaining work and unwinds; finish_job types the
  /// result kDeadlineExceeded.  Space is released immediately so the
  /// backlog admits without waiting for the unwind.  Called with mu_
  /// held.
  void sweep_running_deadlines_locked() {
    bool any = false;
    for (const auto& j : inflight_) {
      if (j->entry.has_deadline && !j->finished()) {
        any = true;
        break;
      }
    }
    if (!any) return;
    if (fault::FaultPlan* p = plan_.load(std::memory_order_acquire)) {
      // Chaos: a lagging watchdog.  Delays enforcement (promptness under
      // faults is best-effort) but must never corrupt it -- the sleep
      // holds mu_, exactly like a dispatcher busy elsewhere.
      if (p->should(fault::InjectSite::kWatchdogStall)) {
        const std::uint32_t us = p->stall_us();
        if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& j : inflight_) {
      if (!j->entry.has_deadline || j->finished()) continue;
      if (j->entry.deadline > now) continue;
      JobState& st = *j->entry.st;
      bool condemned = false;
      {
        std::lock_guard<std::mutex> slk(st.mu);
        if (!st.done) {
          st.token.poison(sched::CancelToken::Reason::kDeadline);
          condemned = true;  // poisoned now, or racing cancel() already did
        }
      }
      if (condemned) release_space_locked(*j);
    }
  }

  /// FIFO head-only admission: admits while the head's estimate fits the
  /// remaining budget.  No overtaking, so a large job is never starved by
  /// small ones arriving behind it.  Called with mu_ held.
  void admit_locked() {
    while (!queue_.empty()) {
      const std::uint64_t est = queue_.front().st->est_words;
      if (used_words_ + est > opts_.space_budget_words) break;
      Entry e = std::move(queue_.front());
      queue_.pop_front();
      used_words_ += est;
      space_peak_ = std::max(space_peak_, used_words_);
      auto job = std::make_unique<Job>(this, std::move(e));
      Job* raw = job.get();
      inflight_.push_back(std::move(job));
      if (tracer_ != nullptr) {
        // Ring 0 is the dispatcher's own (it holds the pool's worker-0
        // slot for the server's lifetime).
        tracer_->emit(0 % tracer_->ring_count(), obs::EventKind::kJobAdmit,
                      static_cast<std::uint8_t>(raw->entry.st->family),
                      obs::kServeLane, raw->entry.st->seq, est,
                      used_words_);
      }
      pool_->fork(raw);
    }
    update_gauges_locked();
  }

  /// Releases the space of every finished job.  Conservative (space is
  /// held until the dispatcher notices completion), which keeps the
  /// "combined estimates never exceed the budget" invariant exact; poison
  /// paths release earlier via release_space_locked, which dedupes.
  /// Called with mu_ held.
  void reap_locked() {
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if ((*it)->finished()) {
        release_space_locked(**it);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
    update_gauges_locked();
  }

  /// Emits parked client-thread events (sheds) on ring 0 -- the
  /// dispatcher's own ring (it holds the pool's worker-0 slot), also safe
  /// from publish_counters after the dispatcher joined.  Called with mu_
  /// held.
  void drain_pending_events_locked() {
    if (tracer_ != nullptr) {
      for (const PendingEvent& ev : pending_events_) {
        tracer_->emit(0 % tracer_->ring_count(), obs::EventKind::kJobShed,
                      static_cast<std::uint8_t>(ev.family), obs::kServeLane,
                      ev.a, ev.b, ev.c);
      }
    }
    pending_events_.clear();
  }

  /// Mirrors the live queue-depth / in-flight gauges into the tracer's
  /// counter registry.  All writers hold mu_; CounterRegistry item
  /// references are not stable across registration, so values are set by
  /// name each time (gauge updates are not on the per-task hot path).
  /// Called with mu_ held after any queue_/inflight_ change.
  void update_gauges_locked() {
    if (tracer_ != nullptr) {
      obs::CounterRegistry& c = tracer_->counters();
      c.set("serve.queue_depth", queue_.size());
      c.set("serve.inflight", inflight_.size());
    }
  }

  /// Publishes aggregate counters into the tracer.  Single-threaded: runs
  /// after the dispatcher has joined (CounterRegistry is not thread-safe).
  void publish_counters() {
    if (tracer_ == nullptr) return;
    std::lock_guard<std::mutex> lk(mu_);
    drain_pending_events_locked();
    obs::CounterRegistry& c = tracer_->counters();
    c.set("serve.jobs_submitted",
          submitted_.load(std::memory_order_relaxed));
    c.set("serve.jobs_completed_ok",
          completed_ok_.load(std::memory_order_relaxed));
    c.set("serve.jobs_failed", failed_.load(std::memory_order_relaxed));
    c.set("serve.jobs_rejected", rejected_.load(std::memory_order_relaxed));
    c.set("serve.jobs_cancelled",
          cancelled_.load(std::memory_order_relaxed));
    c.set("serve.jobs_deadline_exceeded",
          deadline_exceeded_.load(std::memory_order_relaxed));
    c.set("serve.jobs_shed", shed_.load(std::memory_order_relaxed));
    c.set("serve.jobs_cancelled_running",
          cancelled_running_.load(std::memory_order_relaxed));
    c.set("serve.jobs_deadline_exceeded_running",
          deadline_exceeded_running_.load(std::memory_order_relaxed));
    c.set("serve.space_budget_words", opts_.space_budget_words);
    c.set("serve.space_peak_words", space_peak_);
    c.set("serve.queue_peak", queue_peak_);
    update_gauges_locked();
  }

  // ---- state --------------------------------------------------------------

  const ServerOptions opts_;
  sched::NativeExecutor ex_;
  sched::WorkStealingPool* pool_;

  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* wait_hist_ = nullptr;
  obs::Histogram* run_hist_ = nullptr;
  obs::Histogram* poison_hist_ = nullptr;
  std::atomic<fault::FaultPlan*> plan_{nullptr};

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< wakes the idle dispatcher
  bool stopping_ = false;
  std::deque<Entry> queue_;
  std::deque<std::unique_ptr<Job>> inflight_;
  std::vector<PendingEvent> pending_events_;  ///< under mu_
  std::uint64_t used_words_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t space_peak_ = 0;
  std::uint64_t queue_peak_ = 0;

  /// Set by submit/cancel to interrupt the dispatcher's helping join;
  /// cleared by the dispatcher just before it parks in the join.
  std::atomic<bool> poke_{false};

  /// Sliding window of recent queue-wait samples feeding the shed
  /// decision (same samples as the serve.job.wait_ns histogram).
  static constexpr std::size_t kWaitWindow = 64;
  std::array<std::atomic<std::uint64_t>, kWaitWindow> recent_wait_ns_{};
  std::atomic<std::uint64_t> wait_seq_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> cancelled_running_{0};
  std::atomic<std::uint64_t> deadline_exceeded_running_{0};

  std::once_flag shutdown_once_;
  std::thread dispatcher_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// JobHandle / Server
// ---------------------------------------------------------------------------

Status JobHandle::wait() const {
  if (st_ == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "wait() on an empty JobHandle");
  }
  std::unique_lock<std::mutex> lk(st_->mu);
  st_->cv.wait(lk, [this] { return st_->done; });
  return st_->status;
}

Status JobHandle::wait_for(std::chrono::nanoseconds timeout) const {
  if (st_ == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "wait_for() on an empty JobHandle");
  }
  std::unique_lock<std::mutex> lk(st_->mu);
  if (!st_->cv.wait_for(lk, timeout, [this] { return st_->done; })) {
    // Typed and unambiguous: a *completed* job can never carry
    // kUnavailable (submission would have failed before a handle
    // existed), so callers can distinguish "still pending" from any
    // terminal outcome by code alone.
    return Status::error(ErrorCode::kUnavailable,
                         "wait_for timed out; the job is still pending");
  }
  return st_->status;
}

bool JobHandle::cancel() {
  if (core_ == nullptr || st_ == nullptr) return false;
  return core_->cancel(st_);
}

Server::Server(ServerOptions opts)
    : core_(std::make_shared<detail::Core>(opts)) {
  core_->start_dispatcher();
}

Result<Server> Server::make(ServerOptions opts) noexcept {
  try {
    return Server(std::move(opts));
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "server setup allocation failed");
  } catch (const std::system_error& e) {
    return Status::error(ErrorCode::kResourceExhausted,
                         std::string("dispatcher spawn failed: ") + e.what());
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal,
                         std::string("server setup raised: ") + e.what());
  }
}

Server::~Server() {
  if (core_ != nullptr) core_->shutdown();
}

Result<JobHandle> Server::submit(const Request& req,
                                 const JobOptions& jopts) {
  return core_->submit(req, jopts);
}

void Server::shutdown() { core_->shutdown(); }

ServerStats Server::stats() const { return core_->stats(); }

unsigned Server::threads() const { return core_->ex_.threads(); }

const ServerOptions& Server::options() const { return core_->opts_; }

void Server::set_tracer(obs::Tracer* tracer) { core_->set_tracer(tracer); }

void Server::set_fault_plan(fault::FaultPlan* plan) {
  core_->set_fault_plan(plan);
}

// ---------------------------------------------------------------------------
// Retry helpers
// ---------------------------------------------------------------------------

std::optional<std::uint32_t> retry_after_ms_hint(const Status& s) {
  if (s.ok() || s.code() != ErrorCode::kUnavailable) return std::nullopt;
  constexpr std::string_view kKey = "retry_after_ms=";
  const std::string& msg = s.message();
  const std::size_t pos = msg.find(kKey);
  if (pos == std::string::npos) return std::nullopt;
  std::uint64_t v = 0;
  bool any = false;
  for (std::size_t i = pos + kKey.size(); i < msg.size(); ++i) {
    const char ch = msg[i];
    if (ch < '0' || ch > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
    any = true;
    if (v > 1'000'000) return 1'000'000;  // saturate: hints are advisory
  }
  if (!any) return std::nullopt;
  return static_cast<std::uint32_t>(v);
}

std::chrono::milliseconds retry_backoff(const RetryPolicy& policy,
                                        std::uint32_t attempt,
                                        util::Xoshiro256& rng,
                                        std::optional<std::uint32_t> hint_ms) {
  const std::uint64_t cap = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, policy.max_backoff.count()));
  std::uint64_t base = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, policy.initial_backoff.count()));
  // Saturating doubling: attempt 1 sleeps ~initial, attempt k sleeps
  // ~initial * 2^(k-1), never past max_backoff.
  const std::uint32_t doublings = attempt == 0 ? 0 : attempt - 1;
  for (std::uint32_t i = 0; i < doublings && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  // Jitter uniformly in [ceil(base/2), base]: decorrelates retry storms
  // across clients while staying deterministic for a given PRNG state.
  const std::uint64_t lo = (base + 1) / 2;
  std::uint64_t ms = lo + rng.below(base - lo + 1);
  // A server-provided retry-after hint is a floor, never a shortener.
  if (hint_ms.has_value()) ms = std::max<std::uint64_t>(ms, *hint_ms);
  return std::chrono::milliseconds(ms);
}

Result<JobHandle> submit_with_retry(Server& server, const Request& req,
                                    const JobOptions& jopts,
                                    const RetryPolicy& policy) {
  util::Xoshiro256 rng(policy.seed);
  const std::uint32_t attempts =
      std::max<std::uint32_t>(1, policy.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    Result<JobHandle> r = server.submit(req, jopts);
    if (r.ok()) return r;
    const std::optional<std::uint32_t> hint = retry_after_ms_hint(r.status());
    // Only shed responses (kUnavailable with a hint) are retryable;
    // validation errors, budget rejections, and a draining server fail
    // the same way on every attempt.
    if (!hint.has_value() || attempt >= attempts) return r;
    std::this_thread::sleep_for(retry_backoff(policy, attempt, rng, hint));
  }
}

}  // namespace obliv::serve
