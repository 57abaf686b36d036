// Tier-1 tests for PR 10: cooperative cancellation of *running* jobs,
// running-deadline enforcement via the dispatcher watchdog, overload
// shedding with retry-after hints, and the bounded retry client helper.
//
// The load-bearing property: for every one of the seven paper families, a
// job can be cancelled mid-execution and completes with kCancelled, and
// the pool is fully reusable afterwards — a subsequent uncancelled run of
// the same request on the same server is bit-identical to a direct
// NativeExecutor run.  Exercised under 16 seeded chaos FaultPlans so the
// poison checks are hit from perturbed schedules (stolen tasks, inverted
// pop order, stalled workers), not just the quiet path.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "algo/sort.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/cancel.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace obliv::serve {
namespace {

using sched::NatRef;

template <class T>
NatRef<T> ref_of(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

template <class T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

using Job = workload::Instance<sched::NativeExecutor>;

/// The size of a millisecond-scale job of `family`: big enough that a
/// cancel() issued after the body starts reliably lands mid-execution (the
/// cancel round trip is microseconds; these bodies run for milliseconds),
/// small enough to keep 16 iterations in tier-1 budget.  Every family runs
/// for at least ~10 ms even with the SIMD leaf kernels engaged; if one
/// shrinks below that (faster kernels, more threads), the assert in the
/// test names it and says to grow the instance.
std::uint64_t big_size(Family family) {
  constexpr std::uint64_t kSizes[kFamilies] = {
      std::uint64_t{1} << 23,  // scan
      std::uint64_t{1} << 19,  // sort
      std::uint64_t{1} << 18,  // fft
      2048,                    // transpose side
      384,                     // gep side
      // List ranking is the costliest family per element (deep contraction
      // recursion): 1<<14 already runs for >100 ms, and each plan pays for
      // two full reruns, so keep it small.
      std::uint64_t{1} << 14,
      768,  // spmdv grid side
  };
  return kSizes[static_cast<std::size_t>(family)];
}

/// Spins until the job body is executing (true) or the job completed
/// first (false).  Bounded by `limit` wall time.
bool wait_until_running(const JobHandle& h, std::chrono::milliseconds limit) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < give_up) {
    if (h.running()) return true;
    if (h.done()) return false;
    std::this_thread::yield();
  }
  return h.running();
}

// ---------------------------------------------------------------------------
// Tentpole: mid-run cancel, every family, under 16 seeded chaos plans
// ---------------------------------------------------------------------------

TEST(ServeCancel, MidRunCancelAllFamiliesUnderChaos) {
  constexpr int kPlans = 16;  // i % 7 covers every family at least twice
  ServerOptions o;
  o.threads = 2;
  // The instances are sized for cancellable runtimes (see big_size), so
  // the largest working set (scan, 2 * 2^24 words) must fit the budget.
  o.space_budget_words = std::uint64_t{1} << 26;
  Server srv(o);
  sched::NativeExecutor direct_ex(2);

  for (int i = 0; i < kPlans; ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    const auto family = static_cast<Family>(i % kFamilies);
    fault::FaultPlan plan(0xCA9CE100 + std::uint64_t(i),
                          fault::FaultOptions::chaos());
    srv.set_fault_plan(&plan);

    const auto kind = static_cast<workload::Kind>(family);
    const std::uint64_t seed = 5000 + std::uint64_t(i) * 131;
    Job job(direct_ex, kind, big_size(family), seed);

    auto r = srv.submit(job.request());
    ASSERT_TRUE(r.ok()) << r.status().message();
    JobHandle h = r.value();
    ASSERT_TRUE(wait_until_running(h, std::chrono::seconds(10)))
        << family_name(family) << " finished before cancel could land; "
        << "grow the instance size";

    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(h.cancel()) << family_name(family);
    const Status s = h.wait();
    const auto unwind = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(s.code(), ErrorCode::kCancelled) << s.message();
    // Promptness: the poisoned tree skips all remaining work, so the
    // unwind must be far below a full run; 1 s is a loose CI-safe bound
    // that still catches a cancel that degenerated into run-to-completion
    // of a large instance or a hang.
    EXPECT_LT(unwind, std::chrono::seconds(1)) << family_name(family);
    // cancel() == true on a running job implies exactly kCancelled --
    // repeated waits agree (exactly-once completion).
    EXPECT_EQ(h.wait().code(), ErrorCode::kCancelled);

    // Pool reuse: the same request, resubmitted on the same server with
    // fresh input, must complete and match a direct executor run bit for
    // bit -- the cancelled tree left no residue in the pool.
    job.reset();
    auto r2 = srv.submit(job.request());
    ASSERT_TRUE(r2.ok()) << r2.status().message();
    EXPECT_TRUE(r2.value().wait().ok());
    Job ref(direct_ex, kind, big_size(family), seed);
    ref.run(direct_ex);
    EXPECT_TRUE(std::ranges::equal(job.output(), ref.output()))
        << family_name(family);

    srv.set_fault_plan(nullptr);  // before `plan` goes out of scope
  }

  const ServerStats st = srv.stats();
  EXPECT_EQ(st.cancelled, std::uint64_t(kPlans));
  EXPECT_EQ(st.cancelled_running, std::uint64_t(kPlans));
  EXPECT_EQ(st.completed_ok, std::uint64_t(kPlans));
  EXPECT_EQ(st.failed, 0u);
  // Exactly-once accounting with the new outcome classes.
  EXPECT_EQ(st.completed_ok + st.cancelled + st.deadline_exceeded,
            st.submitted);
}

// ---------------------------------------------------------------------------
// Running-deadline watchdog
// ---------------------------------------------------------------------------

TEST(ServeDeadline, RunningJobPoisonedByWatchdog) {
  ServerOptions o;
  o.threads = 2;
  obs::Tracer tracer(2, 1 << 12);
  Server srv(o);
  if (obs::kTracingCompiledIn) srv.set_tracer(&tracer);

  // A Floyd-Warshall instance that takes well over the deadline: n = 1024
  // is ~1.07G relaxations -- beating a 25 ms deadline would need over
  // 40G relaxations/s, far beyond any host this runs on (the SIMD leaf
  // kernels on this class of machine manage a few G/s).
  sched::NativeExecutor alloc(1);
  Job job(alloc, workload::Kind::kGep, 1024, 99);

  JobOptions jo;
  jo.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(25);
  auto r = srv.submit(job.request(), jo);
  ASSERT_TRUE(r.ok()) << r.status().message();
  JobHandle h = r.value();

  const Status s = h.wait();
  EXPECT_EQ(s.code(), ErrorCode::kDeadlineExceeded) << s.message();
  srv.shutdown();

  const ServerStats st = srv.stats();
  EXPECT_EQ(st.deadline_exceeded, 1u);
  // The job was admitted immediately (empty server) and runs far longer
  // than the deadline, so the expiry must have hit it *mid-run* -- the
  // watchdog path, not the queued sweep.
  EXPECT_EQ(st.deadline_exceeded_running, 1u);
  EXPECT_EQ(st.completed_ok, 0u);

  if (obs::kTracingCompiledIn) {
    // The condemnation is visible in the trace: a kJobCancel event whose
    // `c` carries CancelToken::Reason::kDeadline (2).
    bool saw_deadline_poison = false;
    for (std::uint32_t ring = 0; ring < tracer.ring_count(); ++ring) {
      tracer.ring(ring).for_each([&](const obs::Event& e) {
        if (e.kind == obs::EventKind::kJobCancel && e.c == 2) {
          saw_deadline_poison = true;
        }
      });
    }
    EXPECT_TRUE(saw_deadline_poison);
    EXPECT_EQ(tracer.counters().value("serve.jobs_deadline_exceeded_running"),
              1u);
  }
}

// ---------------------------------------------------------------------------
// Overload shedding + retry helpers
// ---------------------------------------------------------------------------

TEST(ServeOverload, ShedsWithRetryAfterHintAndRecovers) {
  const std::size_t na = std::size_t{1} << 17;
  ServerOptions o;
  o.threads = 2;
  o.space_budget_words = 4 * na;  // job A fills the budget exactly
  o.shed_wait_p99_ns = 1;         // any real queue wait trips the threshold
  o.shed_min_samples = 1;
  Server srv(o);

  util::Xoshiro256 rng(2024);
  std::vector<std::uint64_t> a(na);
  for (auto& v : a) v = rng();
  auto ha = srv.submit(SortRequest{ref_of(a)});
  ASSERT_TRUE(ha.ok());
  // A's body starting records the first wait sample (the shed window and
  // the wait histogram share samples).
  ASSERT_TRUE(wait_until_running(ha.value(), std::chrono::seconds(10)));

  // B queues behind A (no budget left).  Queue was empty at B's submit,
  // so B itself is never shed -- shedding requires an existing backlog.
  std::vector<std::int64_t> b(512, 3);
  auto hb = srv.submit(ScanRequest{ref_of(b)});
  ASSERT_TRUE(hb.ok()) << hb.status().message();

  // C sees: backlog present (B waiting) + wait p99 over threshold => shed.
  std::vector<std::int64_t> cbuf(512, 5);
  auto rc = srv.submit(ScanRequest{ref_of(cbuf)});
  ASSERT_FALSE(rc.ok());
  EXPECT_EQ(rc.status().code(), ErrorCode::kUnavailable);
  const auto hint = retry_after_ms_hint(rc.status());
  ASSERT_TRUE(hint.has_value()) << rc.status().message();
  EXPECT_GE(*hint, 1u);
  EXPECT_LE(*hint, 1000u);

  {
    const ServerStats st = srv.stats();
    EXPECT_EQ(st.shed, 1u);
    EXPECT_EQ(st.rejected, 0u);  // shed is its own class, not `rejected`
  }

  // Recovery: once the backlog drains the server accepts again even
  // though the recorded p99 is unchanged -- the backlog guard, not time,
  // re-opens admission.
  EXPECT_TRUE(ha.value().wait().ok());
  EXPECT_TRUE(hb.value().wait().ok());
  std::vector<std::int64_t> d(512, 7);
  auto rd = srv.submit(ScanRequest{ref_of(d)});
  ASSERT_TRUE(rd.ok()) << rd.status().message();
  EXPECT_TRUE(rd.value().wait().ok());

  srv.shutdown();
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.completed_ok, 3u);
}

TEST(ServeRetry, BackoffDeterministicBoundedAndHintFloored) {
  const RetryPolicy p;  // initial 1 ms, max 64 ms
  // Determinism: the same seed yields the same delay sequence.
  util::Xoshiro256 r1(p.seed), r2(p.seed);
  std::vector<std::int64_t> s1, s2;
  for (std::uint32_t k = 1; k <= 8; ++k) {
    s1.push_back(retry_backoff(p, k, r1, std::nullopt).count());
    s2.push_back(retry_backoff(p, k, r2, std::nullopt).count());
  }
  EXPECT_EQ(s1, s2);
  // Bounds: attempt k draws from [ceil(base/2), base] with
  // base = min(max_backoff, initial << (k-1)).
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const std::int64_t base =
        std::min<std::int64_t>(64, std::int64_t{1} << (k - 1));
    EXPECT_GE(s1[k - 1], (base + 1) / 2) << "attempt " << k;
    EXPECT_LE(s1[k - 1], base) << "attempt " << k;
  }
  // A server hint is a floor: with base 1 ms and hint 100 ms the delay is
  // exactly the hint.
  util::Xoshiro256 r3(7);
  EXPECT_EQ(retry_backoff(p, 1, r3, 100u).count(), 100);

  // Hint parsing: only shed-style kUnavailable messages carry one.
  EXPECT_EQ(retry_after_ms_hint(
                Status::error(ErrorCode::kUnavailable,
                              "server overloaded; retry_after_ms=37"))
                .value_or(0),
            37u);
  EXPECT_FALSE(retry_after_ms_hint(
                   Status::error(ErrorCode::kUnavailable,
                                 "server is draining; submit rejected"))
                   .has_value());
  EXPECT_FALSE(retry_after_ms_hint(
                   Status::error(ErrorCode::kResourceExhausted,
                                 "retry_after_ms=5"))
                   .has_value());
  EXPECT_FALSE(retry_after_ms_hint(Status()).has_value());
}

TEST(ServeRetry, SubmitWithRetryRidesOutOverload) {
  const std::size_t na = std::size_t{1} << 17;
  ServerOptions o;
  o.threads = 2;
  o.space_budget_words = 4 * na;
  o.shed_wait_p99_ns = 1;
  o.shed_min_samples = 1;
  Server srv(o);

  util::Xoshiro256 rng(4242);
  std::vector<std::uint64_t> a(na);
  for (auto& v : a) v = rng();
  auto ha = srv.submit(SortRequest{ref_of(a)});
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(wait_until_running(ha.value(), std::chrono::seconds(10)));
  std::vector<std::int64_t> b(512, 3);
  auto hb = srv.submit(ScanRequest{ref_of(b)});
  ASSERT_TRUE(hb.ok());

  RetryPolicy pol;
  pol.max_attempts = 4;
  pol.initial_backoff = std::chrono::milliseconds(1);
  pol.max_backoff = std::chrono::milliseconds(8);
  std::vector<std::int64_t> cbuf(512, 5);
  auto rc = submit_with_retry(srv, ScanRequest{ref_of(cbuf)}, {}, pol);
  if (rc.ok()) {
    // The backlog drained during a backoff and a later attempt landed.
    EXPECT_TRUE(rc.value().wait().ok());
  } else {
    // All attempts shed: the final status is still a hinted shed.
    EXPECT_EQ(rc.status().code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(retry_after_ms_hint(rc.status()).has_value());
  }
  EXPECT_GE(srv.stats().shed, 1u);
  EXPECT_TRUE(ha.value().wait().ok());
  EXPECT_TRUE(hb.value().wait().ok());
}

// ---------------------------------------------------------------------------
// Handle surface: timed wait, live gauges, drain races
// ---------------------------------------------------------------------------

TEST(ServeHandles, WaitForTimesOutTypedWithoutConsuming) {
  ServerOptions o;
  o.threads = 2;
  Server srv(o);
  util::Xoshiro256 rng(11);
  std::vector<std::uint64_t> a(std::size_t{1} << 18);
  for (auto& v : a) v = rng();
  auto r = srv.submit(SortRequest{ref_of(a)});
  ASSERT_TRUE(r.ok());
  JobHandle h = r.value();

  // Far below the job's runtime: must time out, typed, twice (the timed
  // wait never consumes the pending completion).
  const Status t1 = h.wait_for(std::chrono::milliseconds(1));
  EXPECT_EQ(t1.code(), ErrorCode::kUnavailable) << t1.message();
  const Status t2 = h.wait_for(std::chrono::milliseconds(1));
  EXPECT_EQ(t2.code(), ErrorCode::kUnavailable);

  EXPECT_TRUE(h.wait().ok());
  // After completion the timed wait returns the final status, repeatably,
  // from any copy of the handle.
  EXPECT_TRUE(h.wait_for(std::chrono::milliseconds(1)).ok());
  JobHandle copy = h;
  EXPECT_TRUE(copy.wait_for(std::chrono::nanoseconds(0)).ok());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

  JobHandle empty;
  EXPECT_EQ(empty.wait_for(std::chrono::milliseconds(1)).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ServeObs, LiveGaugesTrackQueueAndInflight) {
  const std::size_t na = std::size_t{1} << 17;
  ServerOptions o;
  o.threads = 2;
  o.space_budget_words = 4 * na;  // A alone fits; B and C must queue
  obs::Tracer tracer(2, 1 << 12);
  Server srv(o);
  if (obs::kTracingCompiledIn) srv.set_tracer(&tracer);

  util::Xoshiro256 rng(31337);
  std::vector<std::uint64_t> a(na);
  for (auto& v : a) v = rng();
  auto ha = srv.submit(SortRequest{ref_of(a)});
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(wait_until_running(ha.value(), std::chrono::seconds(10)));

  std::vector<std::int64_t> b(512, 1), c(512, 2);
  auto hb = srv.submit(ScanRequest{ref_of(b)});
  auto hc = srv.submit(ScanRequest{ref_of(c)});
  ASSERT_TRUE(hb.ok());
  ASSERT_TRUE(hc.ok());

  // Deterministic while A runs: A in flight, B and C waiting (the budget
  // admits nothing else).  stats() reads the live gauges under the
  // server's own lock.
  {
    const ServerStats st = srv.stats();
    EXPECT_EQ(st.inflight, 1u);
    EXPECT_EQ(st.queue_depth, 2u);
  }
  // Cancelling queued B is reflected immediately.
  EXPECT_TRUE(hb.value().cancel());
  EXPECT_EQ(srv.stats().queue_depth, 1u);

  EXPECT_TRUE(ha.value().wait().ok());
  EXPECT_TRUE(hc.value().wait().ok());
  srv.shutdown();
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  if (obs::kTracingCompiledIn) {
    // The published gauges agree after drain.
    EXPECT_EQ(tracer.counters().value("serve.queue_depth"), 0u);
    EXPECT_EQ(tracer.counters().value("serve.inflight"), 0u);
    EXPECT_EQ(tracer.counters().value("serve.jobs_cancelled"), 1u);
    EXPECT_EQ(tracer.counters().value("serve.jobs_cancelled_running"), 0u);
  }
}

TEST(ServeShutdownRace, SubmitAfterShutdownIsTypedUnavailable) {
  ServerOptions o;
  o.threads = 2;
  Server srv(o);

  // A modest backlog so shutdown overlaps live work.
  util::Xoshiro256 rng(777);
  std::vector<std::vector<std::uint64_t>> bufs;
  std::vector<JobHandle> hs;
  for (int i = 0; i < 3; ++i) {
    bufs.emplace_back(std::size_t{1} << 14);
    for (auto& v : bufs.back()) v = rng();
    auto r = srv.submit(SortRequest{ref_of(bufs.back())});
    ASSERT_TRUE(r.ok());
    hs.push_back(r.value());
  }

  // Racer submits through the drain window: each attempt either yields a
  // handle that completes, a typed kUnavailable with no retry hint
  // (draining is permanent; retrying is futile and the status says so by
  // omitting the hint), or -- before the drain starts -- a queue-capacity
  // kResourceExhausted from the rapid-fire backlog.
  std::vector<std::vector<std::int64_t>> rbufs(128);
  std::vector<JobHandle> rhandles;
  std::atomic<int> refused{0};
  std::thread racer([&] {
    for (auto& buf : rbufs) {
      buf.assign(256, 9);
      auto r = srv.submit(ScanRequest{ref_of(buf)});
      if (r.ok()) {
        rhandles.push_back(r.value());
      } else {
        EXPECT_TRUE(r.status().code() == ErrorCode::kUnavailable ||
                    r.status().code() == ErrorCode::kResourceExhausted)
            << r.status().message();
        EXPECT_FALSE(retry_after_ms_hint(r.status()).has_value());
        refused.fetch_add(1);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  srv.shutdown();
  racer.join();

  for (auto& h : hs) EXPECT_TRUE(h.wait().ok());
  for (auto& h : rhandles) EXPECT_TRUE(h.wait().ok());

  // Fully drained: a post-shutdown submit is the same typed refusal.
  std::vector<std::int64_t> late(64, 1);
  auto r = srv.submit(ScanRequest{ref_of(late)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(retry_after_ms_hint(r.status()).has_value());

  const ServerStats st = srv.stats();
  EXPECT_EQ(st.submitted, st.completed_ok + st.cancelled +
                              st.deadline_exceeded);
  // Every refusal the racer saw plus the post-shutdown probe above.
  EXPECT_EQ(st.rejected, std::uint64_t(refused.load()) + 1u);
}

// ---------------------------------------------------------------------------
// Direct-caller cancellation (no server): ScopedCancelToken on the
// executor path, the same mechanism the serve layer builds on.
// ---------------------------------------------------------------------------

TEST(CancelToken, DirectExecutorTreePoisonSkipsWork) {
  sched::NativeExecutor ex(2);
  std::vector<std::uint64_t> keys(std::size_t{1} << 15);
  util::Xoshiro256 rng(3);
  for (auto& v : keys) v = rng();
  const std::vector<std::uint64_t> before = keys;

  // Pre-poisoned token: the whole construct is a no-op -- every check
  // sees the poison before any leaf writes.
  sched::CancelToken tok;
  tok.poison(sched::CancelToken::Reason::kCancelled);
  {
    sched::ScopedCancelToken guard(&tok);
    algo::spms_sort(ex, ref_of(keys));
  }
  EXPECT_TRUE(bits_equal(keys, before));

  // Token reset + clean run on the same executor: full result, so the
  // poisoned pass left no scheduler state behind.
  tok.reset();
  {
    sched::ScopedCancelToken guard(&tok);
    algo::spms_sort(ex, ref_of(keys));
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  // First poison wins; the loser reports false and the reason sticks.
  sched::CancelToken t2;
  EXPECT_TRUE(t2.poison(sched::CancelToken::Reason::kDeadline));
  EXPECT_FALSE(t2.poison(sched::CancelToken::Reason::kCancelled));
  EXPECT_EQ(t2.reason(), sched::CancelToken::Reason::kDeadline);
  EXPECT_GT(t2.poison_ns(), 0u);
}

}  // namespace
}  // namespace obliv::serve
