// Tier-1 tests for the serving front-end (src/serve).
//
// The load-bearing property is *parity*: a job served through the
// admission queue and the shared pool must be bit-identical to the same
// algorithm invoked directly on a NativeExecutor — the serving layer may
// change scheduling, never results (the PR 5 schedule-obliviousness
// property lifted to the job level).  The rest covers the typed error
// surface: malformed requests, expired deadlines, cancellation,
// queue-full rejection, and drain-on-shutdown semantics.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstring>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace obliv::serve {
namespace {

using sched::NatRef;

/// Bitwise equality — parity means identical representations, so NaN-safe
/// and rounding-mode-proof, unlike operator== on doubles.
template <class T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
NatRef<T> ref_of(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

ServerOptions small_server() {
  ServerOptions o;
  o.threads = 2;
  return o;
}

// ---------------------------------------------------------------------------
// Parity: served == direct, bit for bit, for all seven families
// ---------------------------------------------------------------------------

/// Serves registry instance (kind, n, seed) and runs its twin directly on
/// a 2-worker executor: the outputs must match bit for bit and pass the
/// serial reference check.
void expect_served_matches_direct(workload::Kind kind, std::uint64_t n,
                                  std::uint64_t seed) {
  sched::NativeExecutor ex(2);
  workload::Instance<sched::NativeExecutor> direct(ex, kind, n, seed);
  workload::Instance<sched::NativeExecutor> served(ex, kind, n, seed);
  direct.run(ex);

  Server srv(small_server());
  auto h = srv.submit(served.request());
  ASSERT_TRUE(h.ok()) << h.status().message();
  EXPECT_TRUE(h.value().wait().ok());
  EXPECT_TRUE(std::ranges::equal(direct.output(), served.output()));
  EXPECT_TRUE(served.check());
}

TEST(ServeParity, ScanMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kScan, 10000, 101);
}

TEST(ServeParity, SortMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kSort, 20000, 202);
}

TEST(ServeParity, FftMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kFft, 1 << 12, 303);
}

TEST(ServeParity, TransposeMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kTranspose, 64, 404);
}

TEST(ServeParity, GepMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kGep, 48, 505);
}

TEST(ServeErrors, GepSideMustHalveEvenly) {
  // Side 17 does not halve down to I-GEP's 8 x 8 base case, and gep_rec
  // asserts equal halves; 24 = 3 * 8 does halve down.
  Server srv(small_server());
  std::vector<double> m(17 * 17, 1.0);
  auto r = srv.submit(GepRequest{ref_of(m), 17});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(validate(GepRequest{ref_of(m), 17}).code(),
            ErrorCode::kInvalidArgument);
  expect_served_matches_direct(workload::Kind::kGep, 24, 506);
}

TEST(ServeParity, ListRankMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kListRank, 4000, 606);
}

TEST(ServeParity, SpmdvMatchesDirect) {
  expect_served_matches_direct(workload::Kind::kSpmdv, 24, 707);  // grid side
}

TEST(ServeParity, ZeroSizeRequestsCompleteOk) {
  Server srv(small_server());
  std::vector<std::int64_t> empty_i64;
  std::vector<std::uint64_t> empty_u64;
  std::vector<algo::cplx> empty_cplx;
  std::vector<JobHandle> hs;
  auto push = [&](Result<JobHandle> r) {
    ASSERT_TRUE(r.ok()) << r.status().message();
    hs.push_back(r.value());
  };
  push(srv.submit(ScanRequest{ref_of(empty_i64)}));
  push(srv.submit(SortRequest{ref_of(empty_u64)}));
  push(srv.submit(FftRequest{ref_of(empty_cplx)}));
  for (auto& h : hs) EXPECT_TRUE(h.wait().ok());
}

// ---------------------------------------------------------------------------
// Typed error surface
// ---------------------------------------------------------------------------

TEST(ServeErrors, MalformedRequestsRejectedTyped) {
  Server srv(small_server());

  std::vector<algo::cplx> odd(100);  // not a power of two
  auto r1 = srv.submit(FftRequest{ref_of(odd)});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), ErrorCode::kInvalidArgument);

  std::vector<double> m(16 * 16);
  auto r2 = srv.submit(TransposeRequest{ref_of(m), ref_of(m), 16});
  ASSERT_FALSE(r2.ok());  // aliased in/out
  EXPECT_EQ(r2.status().code(), ErrorCode::kInvalidArgument);

  auto r3 = srv.submit(GepRequest{ref_of(m), 32});  // view shorter than n*n
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), ErrorCode::kInvalidArgument);

  std::vector<std::uint64_t> a(8, algo::kNil), b(7, algo::kNil);
  auto r4 = srv.submit(ListRankRequest{ref_of(a), ref_of(b), ref_of(a)});
  ASSERT_FALSE(r4.ok());  // mismatched lengths
  EXPECT_EQ(r4.status().code(), ErrorCode::kInvalidArgument);

  std::vector<algo::SpmEntry> av(4);
  std::vector<std::uint64_t> a0 = {0, 2, 9};  // end offset beyond av
  std::vector<double> x(2), y(2);
  auto r5 = srv.submit(
      SpmdvRequest{ref_of(av), ref_of(a0), ref_of(x), ref_of(y)});
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), ErrorCode::kInvalidArgument);

  // A view that is null but claims length.
  auto r6 = srv.submit(ScanRequest{NatRef<std::int64_t>(nullptr, 8)});
  ASSERT_FALSE(r6.ok());
  EXPECT_EQ(r6.status().code(), ErrorCode::kInvalidArgument);

  EXPECT_EQ(srv.stats().rejected, 6u);
}

TEST(ServeErrors, OversizedRequestRejectedAtSubmit) {
  ServerOptions o = small_server();
  o.space_budget_words = 1024;
  Server srv(o);
  std::vector<std::uint64_t> big(1000);  // sort estimate 4000 > 1024
  auto r = srv.submit(SortRequest{ref_of(big)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ServeErrors, ExpiredDeadlineCompletesWithoutRunning) {
  Server srv(small_server());
  std::vector<std::int64_t> data(1000, 7);
  const std::vector<std::int64_t> before = data;
  JobOptions jo;
  jo.deadline = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1);
  auto r = srv.submit(ScanRequest{ref_of(data)}, jo);
  ASSERT_TRUE(r.ok());  // accepted: expiry is the dispatcher's call
  const Status s = r.value().wait();  // must return, not hang
  EXPECT_EQ(s.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(bits_equal(before, data));  // never touched the buffer
  EXPECT_EQ(srv.stats().deadline_exceeded, 1u);
}

TEST(ServeErrors, CancelSemantics) {
  // Budget sized exactly to job A, so B must wait in the queue while A
  // runs — the window in which cancel() is specified to succeed.
  const std::size_t na = 1 << 15;
  ServerOptions o = small_server();
  o.space_budget_words = 4 * na;
  Server srv(o);

  std::vector<std::uint64_t> a(na);
  util::Xoshiro256 rng(808);
  for (auto& x : a) x = rng();
  std::vector<std::int64_t> b(512, 3);
  const std::vector<std::int64_t> b_before = b;

  auto ha = srv.submit(SortRequest{ref_of(a)});
  ASSERT_TRUE(ha.ok());
  auto hb = srv.submit(ScanRequest{ref_of(b)});
  ASSERT_TRUE(hb.ok());

  JobHandle jb = hb.value();
  const bool cancelled = jb.cancel();
  const Status sb = jb.wait();
  if (cancelled) {
    // cancel() decided the fate: queued (usual here, A holds the whole
    // budget) or — if A finished first — mid-run.  Either way the final
    // status is kCancelled; the buffer is only guaranteed untouched in
    // the queued case (a mid-run poison leaves it unspecified).
    EXPECT_EQ(sb.code(), ErrorCode::kCancelled);
    const ServerStats st = srv.stats();
    EXPECT_EQ(st.cancelled, 1u);
    if (st.cancelled_running == 0) {
      EXPECT_TRUE(bits_equal(b_before, b));  // never ran
    }
  } else {
    // Lost the race: B already completed, so it must have run normally.
    EXPECT_TRUE(sb.ok());
  }
  EXPECT_TRUE(ha.value().wait().ok());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

  // Cancelling a finished job is a no-op.
  EXPECT_FALSE(jb.cancel());
}

TEST(ServeErrors, QueueFullRejectionIsTyped) {
  // One-at-a-time budget and a single waiting slot: a burst of submits
  // must overflow the queue, and every overflow must be a typed
  // kResourceExhausted (never a hang or a crash).
  const std::size_t n = 1 << 14;
  ServerOptions o = small_server();
  o.space_budget_words = 4 * n;
  o.queue_capacity = 1;
  Server srv(o);

  std::vector<std::vector<std::uint64_t>> bufs;
  util::Xoshiro256 rng(909);
  for (int i = 0; i < 8; ++i) {
    bufs.emplace_back(n);
    for (auto& x : bufs.back()) x = rng();
  }
  std::size_t ok = 0, rejected = 0;
  std::vector<JobHandle> hs;
  for (auto& buf : bufs) {
    auto r = srv.submit(SortRequest{ref_of(buf)});
    if (r.ok()) {
      ++ok;
      hs.push_back(r.value());
    } else {
      ++rejected;
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
    }
  }
  EXPECT_EQ(ok + rejected, bufs.size());
  EXPECT_GE(ok, 1u);
  for (auto& h : hs) EXPECT_TRUE(h.wait().ok());
  for (std::size_t i = 0, k = 0; i < bufs.size(); ++i) {
    if (k < hs.size() && std::is_sorted(bufs[i].begin(), bufs[i].end())) ++k;
  }
}

// ---------------------------------------------------------------------------
// Drain / shutdown
// ---------------------------------------------------------------------------

TEST(ServeShutdown, DrainCompletesAdmittedAndRejectsNew) {
  Server srv(small_server());
  std::vector<std::vector<std::uint64_t>> bufs;
  std::vector<JobHandle> hs;
  util::Xoshiro256 rng(111);
  for (int i = 0; i < 4; ++i) {
    bufs.emplace_back(4096);
    for (auto& x : bufs.back()) x = rng();
    auto r = srv.submit(SortRequest{ref_of(bufs.back())});
    ASSERT_TRUE(r.ok());
    hs.push_back(r.value());
  }
  srv.shutdown();  // graceful: every accepted job completes
  for (std::size_t i = 0; i < hs.size(); ++i) {
    EXPECT_TRUE(hs[i].wait().ok());
    EXPECT_TRUE(std::is_sorted(bufs[i].begin(), bufs[i].end()));
  }
  std::vector<std::uint64_t> late(16);
  auto r = srv.submit(SortRequest{ref_of(late)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);

  srv.shutdown();  // idempotent
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed_ok, 4u);
  EXPECT_EQ(st.rejected, 1u);
}

TEST(ServeShutdown, HandleOutlivesServer) {
  std::vector<std::uint64_t> buf(2048);
  util::Xoshiro256 rng(222);
  for (auto& x : buf) x = rng();
  JobHandle h;
  {
    Server srv(small_server());
    auto r = srv.submit(SortRequest{ref_of(buf)});
    ASSERT_TRUE(r.ok());
    h = r.value();
  }  // ~Server drains
  EXPECT_TRUE(h.wait().ok());
  EXPECT_TRUE(std::is_sorted(buf.begin(), buf.end()));
}

// ---------------------------------------------------------------------------
// Observability: job lane events + published counters
// ---------------------------------------------------------------------------

TEST(ServeObs, JobLaneEventsAndCounters) {
  ServerOptions o = small_server();
  obs::Tracer tracer(o.threads == 0 ? 2 : o.threads, 1 << 12);
  Server srv(o);
  srv.set_tracer(&tracer);

  std::vector<std::vector<std::uint64_t>> bufs;
  std::vector<JobHandle> hs;
  util::Xoshiro256 rng(333);
  for (int i = 0; i < 3; ++i) {
    bufs.emplace_back(4096);
    for (auto& x : bufs.back()) x = rng();
    auto r = srv.submit(SortRequest{ref_of(bufs.back())});
    ASSERT_TRUE(r.ok());
    hs.push_back(r.value());
  }
  for (auto& h : hs) EXPECT_TRUE(h.wait().ok());
  srv.shutdown();

  EXPECT_EQ(tracer.events_dropped(), 0u);
  std::size_t admits = 0, begins = 0, ends = 0;
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    tracer.ring(r).for_each([&](const obs::Event& e) {
      if (e.kind == obs::EventKind::kJobAdmit) ++admits;
      if (e.kind == obs::EventKind::kJobBegin) ++begins;
      if (e.kind == obs::EventKind::kJobEnd) {
        ++ends;
        EXPECT_EQ(e.tid, obs::kServeLane);
        EXPECT_EQ(e.detail, std::uint8_t(Family::kSort));
        EXPECT_EQ(e.c, std::uint64_t(ErrorCode::kOk));
      }
    });
  }
  EXPECT_EQ(admits, 3u);
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, 3u);

  const obs::CounterRegistry& c = tracer.counters();
  EXPECT_EQ(c.value("serve.jobs_submitted"), 3u);
  EXPECT_EQ(c.value("serve.jobs_completed_ok"), 3u);
  EXPECT_EQ(c.value("serve.space_budget_words"), o.space_budget_words);
  EXPECT_GT(c.value("serve.space_peak_words"), 0u);
  EXPECT_LE(c.value("serve.space_peak_words"), o.space_budget_words);
  const obs::Histogram* wh = c.find_histogram("serve.job.wait_ns");
  const obs::Histogram* rh = c.find_histogram("serve.job.run_ns");
  ASSERT_NE(wh, nullptr);
  ASSERT_NE(rh, nullptr);
  EXPECT_EQ(wh->count(), 3u);
  EXPECT_EQ(rh->count(), 3u);
}

TEST(ServeObs, SpaceEstimatesMatchDocumentedBounds) {
  std::vector<std::int64_t> i64(10);
  std::vector<std::uint64_t> u64(10);
  std::vector<algo::cplx> cx(8);
  EXPECT_EQ(space_estimate_words(Request(ScanRequest{ref_of(i64)})), 20u);
  EXPECT_EQ(space_estimate_words(Request(SortRequest{ref_of(u64)})), 40u);
  EXPECT_EQ(space_estimate_words(Request(FftRequest{ref_of(cx)})), 48u);
  EXPECT_EQ(family_name(Family::kScan), "scan");
  EXPECT_EQ(family_name(Family::kSpmdv), "spmdv");
}

}  // namespace
}  // namespace obliv::serve
