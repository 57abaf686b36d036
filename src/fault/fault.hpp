// Deterministic, seed-driven fault injection.
//
// The paper's correctness claims (Theorems 1-10) hold for *any* legal
// schedule the hint-driven scheduler may produce.  This layer turns that
// from an assumption into a tested property: a FaultPlan is a seeded source
// of adversarial scheduling decisions and resource failures that the
// executors consult at fixed injection points --
//
//   * kStealVictim  -- WorkStealingPool::try_steal starts its victim scan at
//                      a plan-chosen worker instead of the owner's PRNG;
//   * kPopOrder     -- join()/worker_main() prefer stealing over popping the
//                      local deque for one round (inverts LIFO help order);
//   * kWorkerStall  -- a worker sleeps a plan-chosen window before running a
//                      task (simulated preemption / delayed wake-up);
//   * kWakeDrop     -- fork() skips its notify_one (legal: wake-ups are a
//                      parallelism accelerator, never needed for progress --
//                      see the Dekker pairing notes in native_executor.cpp);
//   * kAllocSim / kAllocBuf / kAllocSetup -- chosen allocations (cache-sim
//                      tables, executor buffers, scheduler setup) throw
//                      std::bad_alloc, which the typed `make()` entry points
//                      surface as ErrorCode::kResourceExhausted;
//   * kCancelPoison  -- the current tree's sched::CancelToken is poisoned at
//                      a fork or steal point, the two moments a cancel can
//                      land most adversarially (the tree must still join
//                      cleanly and report kCancelled);
//   * kWatchdogStall -- the serve dispatcher sleeps a plan-chosen window
//                      before its deadline sweep (a lagging watchdog must
//                      delay, never corrupt, deadline enforcement).
//
// Determinism: decision i of a plan is a pure function of (seed, i); the
// decision stream is drawn from an atomic counter, so a single-threaded
// consumer (the simulator) replays byte-identically, and concurrent
// consumers (pool workers) see a fixed decision *sequence* whose assignment
// to workers races exactly like any chaos schedule.  Reproduce a failing
// fuzz case with OBLIV_FAULT_SEED=<n> (tests/test_fault_fuzz.cpp).
//
// Cost: with no plan attached (the default) every hook is one null test;
// bench_wallclock --fault-off-check gates that cost at <= 1%.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string_view>

namespace obliv::fault {

enum class InjectSite : std::uint8_t {
  kStealVictim = 0,  ///< perturb steal-victim selection
  kPopOrder,         ///< invert pop-vs-steal preference for one round
  kWorkerStall,      ///< stall a worker before it runs a task
  kWakeDrop,         ///< drop a fork's (non-essential) wake-up
  kAllocSim,         ///< fail a cache-sim table allocation
  kAllocBuf,         ///< fail an executor buffer allocation
  kAllocSetup,       ///< fail a scheduler setup allocation / thread spawn
  kCancelPoison,     ///< poison the current tree's CancelToken at a fork
                     ///< or steal point (adversarial cancel delivery)
  kWatchdogStall,    ///< delay the serve dispatcher's deadline sweep
  kCount
};

inline constexpr std::size_t kInjectSites =
    static_cast<std::size_t>(InjectSite::kCount);

inline std::string_view inject_site_name(InjectSite site) {
  switch (site) {
    case InjectSite::kStealVictim: return "steal_victim";
    case InjectSite::kPopOrder: return "pop_order";
    case InjectSite::kWorkerStall: return "worker_stall";
    case InjectSite::kWakeDrop: return "wake_drop";
    case InjectSite::kAllocSim: return "alloc_sim";
    case InjectSite::kAllocBuf: return "alloc_buf";
    case InjectSite::kAllocSetup: return "alloc_setup";
    case InjectSite::kCancelPoison: return "cancel_poison";
    case InjectSite::kWatchdogStall: return "watchdog_stall";
    case InjectSite::kCount: break;
  }
  return "unknown";
}

/// Per-site injection probabilities in 1/65536 units (integer so a plan's
/// decisions stay integer-only and platform-independent), plus the stall
/// window bound.
struct FaultOptions {
  std::uint16_t p[kInjectSites] = {};  ///< indexed by InjectSite
  std::uint32_t max_stall_us = 0;      ///< upper bound for kWorkerStall sleeps

  /// Schedule chaos for the fuzz harness: frequent victim perturbation and
  /// pop-order inversion, occasional stalls and dropped wake-ups, *no*
  /// allocation failures (those would abort a run that must complete).
  static FaultOptions chaos() {
    FaultOptions o;
    o.p[static_cast<std::size_t>(InjectSite::kStealVictim)] = 32768;  // 50%
    o.p[static_cast<std::size_t>(InjectSite::kPopOrder)] = 16384;     // 25%
    o.p[static_cast<std::size_t>(InjectSite::kWorkerStall)] = 1311;   // ~2%
    o.p[static_cast<std::size_t>(InjectSite::kWakeDrop)] = 16384;     // 25%
    o.max_stall_us = 200;
    return o;
  }

  /// chaos() plus the cancellation-specific sites: occasional adversarial
  /// poison delivery at fork/steal points and frequent watchdog-sweep
  /// delays.  Used by the cancel storms and the chaos soak; kept out of
  /// chaos() because an injected poison changes the *result* (kCancelled),
  /// which the bit-identical-output fuzz harness must never see.
  static FaultOptions cancel_chaos() {
    FaultOptions o = chaos();
    o.p[static_cast<std::size_t>(InjectSite::kCancelPoison)] = 328;      // ~0.5%
    o.p[static_cast<std::size_t>(InjectSite::kWatchdogStall)] = 16384;   // 25%
    return o;
  }

  /// Heavy allocation-failure pressure for error-path tests; no schedule
  /// chaos so failures are attributable.
  static FaultOptions alloc_storm(std::uint16_t per64k = 65535) {
    FaultOptions o;
    o.p[static_cast<std::size_t>(InjectSite::kAllocSim)] = per64k;
    o.p[static_cast<std::size_t>(InjectSite::kAllocBuf)] = per64k;
    o.p[static_cast<std::size_t>(InjectSite::kAllocSetup)] = per64k;
    return o;
  }

  /// All probabilities zero: hooks run but never inject, and a zeroed site
  /// costs only the probability load + branch (no PRNG draw) -- the same
  /// order of cost as the detached production state.  Used by
  /// bench_wallclock --fault-off-check to bound the hook overhead.
  static FaultOptions inert() { return FaultOptions{}; }
};

/// A seeded fault plan: the injection-point registry plus the PRNG that
/// decides, per consulted site, whether (and how) to inject.  Thread-safe;
/// the decision stream is a pure function of the seed and the consumption
/// index.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed, FaultOptions opt = FaultOptions::chaos())
      : seed_(seed), opt_(opt) {
    for (auto& c : injected_) c.store(0, std::memory_order_relaxed);
  }

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  std::uint64_t seed() const noexcept { return seed_; }
  const FaultOptions& options() const noexcept { return opt_; }

  /// Draws the next decision for `site`; true = inject here.
  bool should(InjectSite site) noexcept {
    const std::uint16_t p = opt_.p[static_cast<std::size_t>(site)];
    if (p == 0) {
      // Early-out without touching the shared decision counter: spinning
      // thieves consult kStealVictim on every failed attempt, and an
      // atomic RMW there makes even an inert plan measurably slow (the
      // --fault-off-check guardrail caught +50% on steal-heavy loads).
      return false;
    }
    const bool hit = (draw(site) & 0xffff) < p;
    if (hit) {
      injected_[static_cast<std::size_t>(site)].fetch_add(
          1, std::memory_order_relaxed);
    }
    return hit;
  }

  /// Uniform draw in [0, bound) for sites that need a choice, not a coin
  /// (victim index, stall length).  bound must be > 0.
  std::uint32_t pick(InjectSite site, std::uint32_t bound) noexcept {
    return static_cast<std::uint32_t>(draw(site) % bound);
  }

  /// Stall window for kWorkerStall, in microseconds (0 when stalls are
  /// configured off).
  std::uint32_t stall_us() noexcept {
    if (opt_.max_stall_us == 0) return 0;
    return pick(InjectSite::kWorkerStall, opt_.max_stall_us) + 1;
  }

  /// Decisions drawn / injections performed so far (diagnostics; relaxed).
  std::uint64_t decisions() const noexcept {
    return ctr_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected(InjectSite site) const noexcept {
    return injected_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t injected_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : injected_) n += c.load(std::memory_order_relaxed);
    return n;
  }

 private:
  std::uint64_t draw(InjectSite site) noexcept {
    // splitmix64 over (seed, index, site): decision i is reproducible from
    // the seed alone.
    std::uint64_t z = seed_ ^
                      (ctr_.fetch_add(1, std::memory_order_relaxed) *
                       0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(site) << 56);
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
  FaultOptions opt_;
  std::atomic<std::uint64_t> ctr_{0};
  std::array<std::atomic<std::uint64_t>, kInjectSites> injected_{};
};

/// One-line biased coin: false unless `plan` is attached and decides to
/// inject at `site`.
inline bool inject(FaultPlan* plan, InjectSite site) noexcept {
  if (plan != nullptr) return plan->should(site);
  return false;
}

// ---------------------------------------------------------------------------
// Process-global plan (allocation sites)
// ---------------------------------------------------------------------------
//
// Scheduler chaos is wired explicitly (set_fault_plan on the pool, like
// set_tracer), but allocation sites live deep inside constructors and
// templates where threading a plan pointer through every signature would
// distort the API.  Those consult the process-global plan installed by
// ScopedFaultPlan instead.

inline std::atomic<FaultPlan*>& global_plan_slot() noexcept {
  static std::atomic<FaultPlan*> slot{nullptr};
  return slot;
}

inline FaultPlan* active_plan() noexcept {
  return global_plan_slot().load(std::memory_order_acquire);
}

/// RAII installer for the process-global plan (restores the previous one, so
/// scopes nest).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan* plan) noexcept
      : prev_(global_plan_slot().exchange(plan, std::memory_order_acq_rel)) {}
  ~ScopedFaultPlan() {
    global_plan_slot().store(prev_, std::memory_order_release);
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan* prev_;
};

/// Allocation injection point: throws std::bad_alloc when the active global
/// plan says so.  Callers are the typed `make()` entry points (or code paths
/// reached only from them), which translate the throw into
/// ErrorCode::kResourceExhausted.
inline void maybe_fail_alloc(InjectSite site) {
  if (FaultPlan* p = active_plan()) {
    if (p->should(site)) throw std::bad_alloc();
  }
}

/// OBLIV_FAULT_SEED=<n> from the environment (the reproduction knob printed
/// by the fuzz harness on failure); nullopt when unset or unparsable.
inline std::optional<std::uint64_t> seed_from_env() {
  const char* env = std::getenv("OBLIV_FAULT_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 0);
  if (end == env || (end != nullptr && *end != '\0')) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace obliv::fault
