// Cooperative, tree-scoped cancellation for the native executors.
//
// A CancelToken is owned by whoever roots a task tree (the serve layer
// attaches one per job; direct callers may install one around an executor
// construct with ScopedCancelToken).  Poisoning the token does NOT throw
// or unwind: every CGC/SB anchor point, fork, and loop-driver iteration in
// the native executor checks the current token and turns the remaining
// work into a no-op.  The fork/join *structure* is preserved — already
// forked tasks still run (as empty shells) and every join completes — so
// a poisoned tree drains off the pool without touching sibling trees.
// The promptness bound is one fork/anchor interval: a running leaf
// finishes its current sequential grain before the next check fires.
//
// Why skip-work instead of exceptions: the executor's loop drivers run
// the lower half of a split inline while the upper half sits forked in a
// Chase-Lev deque.  Throwing from the inline half would skip the join of
// the forked half, leaving a stack-resident Task reachable from other
// workers' steal loops after its frame died.  Cooperative no-op bodies
// keep the schedule legal under the same chaos plans PR 5 fuzzes.
//
// Memory model: poison() publishes with a release CAS, poisoned() reads
// with an acquire load, so any writes made by the canceller before
// poisoning are visible to leaves that observe the poison.  The first
// poison wins; later calls (cancel racing the deadline watchdog) are
// no-ops and report false.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace obliv::sched {

class CancelToken {
 public:
  /// Why the tree was poisoned.  Values are stable: the serve layer maps
  /// them onto ErrorCode (kCancelled / kDeadlineExceeded) and the obs
  /// layer records them in kJobCancel event payloads.
  enum class Reason : std::uint8_t {
    kNone = 0,      ///< live
    kCancelled = 1, ///< explicit cancel() by the owner
    kDeadline = 2,  ///< deadline watchdog expired the tree mid-run
  };

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Poison the tree.  First caller wins and returns true; the losing
  /// reason is dropped.  `now_ns` (steady-clock ns) is stamped so the
  /// serve layer can histogram poison-to-completion latency; pass 0 to
  /// let the token read the clock itself.
  bool poison(Reason reason, std::uint64_t now_ns = 0) noexcept {
    if (now_ns == 0) {
      now_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
      if (now_ns == 0) now_ns = 1;
    }
    // Stamp the timestamp first (first-wins), then publish the state with
    // a release CAS: an acquire load of state_ that observes the poison
    // also observes the winner's timestamp.
    std::uint64_t expected_ns = 0;
    poison_ns_.compare_exchange_strong(expected_ns, now_ns,
                                       std::memory_order_relaxed);
    std::uint8_t expected = 0;
    return state_.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason),
        std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// True once any poison() landed (acquire).
  bool poisoned() const noexcept {
    return state_.load(std::memory_order_acquire) != 0;
  }

  /// The winning poison reason, kNone while live.
  Reason reason() const noexcept {
    return static_cast<Reason>(state_.load(std::memory_order_acquire));
  }

  /// Steady-clock ns stamped by the winning poison(); 0 while live.
  std::uint64_t poison_ns() const noexcept {
    return poison_ns_.load(std::memory_order_relaxed);
  }

  /// Arm a running deadline (steady-clock ns).  Once the instant passes,
  /// the next cancel_pending() check on any thread executing the tree
  /// self-poisons with kDeadline.  This is what makes deadline
  /// enforcement independent of the dispatcher: a dispatcher helping
  /// execute a long job is swallowed by a nested blocking join and cannot
  /// sweep, but the workers inside the tree keep hitting check sites.
  /// Arm before the tree starts; 0 means no deadline.
  void arm_deadline(std::uint64_t steady_ns) noexcept {
    deadline_ns_.store(steady_ns, std::memory_order_relaxed);
  }

  /// Self-poison if an armed deadline has passed.  One relaxed load when
  /// no deadline is armed; the clock is read only when one is.
  bool check_deadline() noexcept {
    const std::uint64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    const std::uint64_t now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    if (now < d) return false;
    poison(Reason::kDeadline, now == 0 ? 1 : now);
    return true;
  }

  /// Re-arm a token for reuse (only legal once the poisoned tree has
  /// fully joined; the serve layer never reuses tokens, tests may).
  void reset() noexcept {
    state_.store(0, std::memory_order_relaxed);
    poison_ns_.store(0, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint8_t> state_{0};
  std::atomic<std::uint64_t> poison_ns_{0};
  std::atomic<std::uint64_t> deadline_ns_{0};
};

namespace detail {
// The token governing the task tree the calling thread is currently
// executing, or nullptr outside any cancellable tree.  WorkStealingPool
// installs a task's token around run() and forked tasks inherit the
// forking thread's token, so one set_cancel_token() at the tree root
// covers every stolen descendant.  Defined here with its constant
// initializer, so every TU reads it directly rather than through a
// thread_local init wrapper.
inline thread_local CancelToken* tls_cancel_token = nullptr;

/// Hot-path check used at fork/anchor/loop-driver sites: one TLS read
/// plus, only when a token is installed, one acquire load — and, only
/// when a deadline is armed, a clock read that self-poisons on expiry.
inline bool cancel_pending() noexcept {
  CancelToken* tok = tls_cancel_token;
  if (tok == nullptr) return false;
  if (tok->poisoned()) return true;
  return tok->check_deadline();
}
}  // namespace detail

/// The token governing the calling thread's current task tree (nullptr
/// outside any cancellable tree).
inline CancelToken* current_cancel_token() noexcept {
  return detail::tls_cancel_token;
}

/// RAII installer for direct (non-serve) callers: installs `tok` as the
/// calling thread's current token so executor constructs entered from
/// this scope — and every task they fork — observe it.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(CancelToken* tok) noexcept
      : saved_(detail::tls_cancel_token) {
    detail::tls_cancel_token = tok;
  }
  ~ScopedCancelToken() { detail::tls_cancel_token = saved_; }
  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  CancelToken* saved_;
};

}  // namespace obliv::sched
