// Deterministic multi-client fuzz for the serving front-end.
//
// Four producer threads submit seeded randomized job mixes (scan, sort,
// transpose, list ranking) to one server whose pool runs under a chaos
// FaultPlan (schedule perturbations: forced stalls, skewed steal victims,
// dropped wakeups).  The invariants checked:
//
//   1. Every accepted job completes exactly once, with a typed outcome —
//      kOk (result matches an independently computed serial reference),
//      kCancelled, or kDeadlineExceeded (for those two the buffers are
//      unspecified: since PR 10 a cancel or deadline can poison a job
//      *mid-run*, stopping the tree part-way through its writes).
//   2. Admission never exceeds the space budget: the serve.space_peak_words
//      counter published at drain stays <= serve.space_budget_words.
//   3. No starvation: every producer's wait() calls return within the
//      tier-1 test timeout with a fixed seed (FIFO head-only admission
//      means no job can be overtaken indefinitely).
//   4. A sim-executor golden workload running concurrently with the storm
//      reproduces its pre-storm counters bit-for-bit — native serving and
//      the deterministic simulator do not share mutable state
//      (golden_workloads.hpp reuse).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "golden_workloads.hpp"
#include "hm/config.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace obliv::serve {
namespace {

/// One producer-owned job: a registry instance (the live buffers the server
/// writes into), its handle, and what the producer did to it.
struct ClientJob {
  workload::Instance<sched::NativeExecutor> inst;
  JobHandle handle;
  bool tried_cancel = false;
  bool cancel_won = false;
  bool had_deadline = false;
};

/// A random scan, sort, transpose or list-ranking job.  `alloc` only
/// allocates (native buffers are plain memory), so producers share it.
ClientJob make_job(sched::NativeExecutor& alloc, util::Xoshiro256& rng) {
  workload::Kind kind;
  std::uint64_t n;
  switch (rng.below(4)) {
    case 0:
      kind = workload::Kind::kScan;
      n = 1 + rng.below(4096);
      break;
    case 1:
      kind = workload::Kind::kSort;
      n = 1 + rng.below(4096);
      break;
    case 2:
      kind = workload::Kind::kTranspose;
      n = std::uint64_t(1) << (2 + rng.below(4));  // 4..32
      break;
    default:  // list ranking over a random-memory-order list
      kind = workload::Kind::kListRank;
      n = 1 + rng.below(2048);
      break;
  }
  return ClientJob{{alloc, kind, n, rng()}, {}};
}

/// Checks one completed job's outcome against its reference.  Returns a
/// failure description, or empty when consistent.
std::string check_job(ClientJob& j) {
  const Status s = j.handle.wait();
  const Status s2 = j.handle.wait();  // exactly-once: observed twice,
  if (s.code() != s2.code()) return "wait() not idempotent";
  const bool ran = s.ok();
  if (!ran && s.code() != ErrorCode::kCancelled &&
      s.code() != ErrorCode::kDeadlineExceeded) {
    return "unexpected status: " + std::string(error_code_name(s.code()));
  }
  if (s.code() == ErrorCode::kCancelled && !j.tried_cancel) {
    return "kCancelled without a cancel() call";
  }
  if (s.code() == ErrorCode::kCancelled && !j.cancel_won) {
    return "kCancelled but cancel() returned false";
  }
  if (j.cancel_won && s.code() != ErrorCode::kCancelled) {
    return "cancel() returned true but status is not kCancelled";
  }
  if (s.code() == ErrorCode::kDeadlineExceeded && !j.had_deadline) {
    return "kDeadlineExceeded without a deadline";
  }
  // Buffer checks only for kOk: a cancelled or deadline-expired job may
  // have been poisoned mid-run, which leaves its output unspecified (the
  // tree stopped part-way through its schedule).
  if (ran && !j.inst.check()) return "buffer mismatch vs the serial reference";
  return "";
}

TEST(ServeConcurrency, SeededMultiClientStormUnderChaos) {
  constexpr int kProducers = 4;
  constexpr int kJobsPerProducer = 24;
  constexpr std::uint64_t kSeed = 0xC0FFEE;

  // Plan outlives the server; chaos perturbs only which legal schedule
  // runs, so every job that runs must still match its serial reference.
  fault::FaultPlan plan(kSeed, fault::FaultOptions::chaos());

  ServerOptions o;
  o.threads = 4;
  o.space_budget_words = std::uint64_t(1) << 16;  // forces real queuing
  o.queue_capacity = kProducers * kJobsPerProducer;  // but no overflow
  obs::Tracer tracer(o.threads, 1 << 15);

  sched::NativeExecutor alloc(1);
  std::vector<std::vector<ClientJob>> jobs(kProducers);
  {
    Server srv(o);
    srv.set_tracer(&tracer);
    srv.set_fault_plan(&plan);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        util::Xoshiro256 rng(kSeed + std::uint64_t(p) * 7919);
        auto& mine = jobs[p];
        mine.reserve(kJobsPerProducer);
        for (int i = 0; i < kJobsPerProducer; ++i) {
          mine.push_back(make_job(alloc, rng));
          ClientJob& j = mine.back();
          JobOptions jo;
          if (rng.below(8) == 0) {
            // A tight start deadline: legal outcomes are kOk (started in
            // time) or kDeadlineExceeded (swept while queued).
            j.had_deadline = true;
            jo.deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(rng.below(2000));
          }
          auto r = srv.submit(j.inst.request(), jo);
          ASSERT_TRUE(r.ok()) << r.status().message();
          j.handle = r.value();
          if (rng.below(4) == 0) {
            j.tried_cancel = true;
            j.cancel_won = j.handle.cancel();
          }
        }
        // Starvation check: every handle must resolve while the storm is
        // still in flight elsewhere (bounded by the tier-1 timeout).
        for (ClientJob& j : mine) j.handle.wait();
      });
    }

    // Invariant 4: the deterministic simulator is unaffected by the
    // native storm around it.
    const golden::GoldenRun before =
        golden::run_scan(hm::MachineConfig::shared_l2(4), 1024);
    const golden::GoldenRun during =
        golden::run_scan(hm::MachineConfig::shared_l2(4), 1024);
    EXPECT_EQ(before.counts, during.counts);

    for (auto& t : producers) t.join();
    srv.shutdown();
    srv.set_fault_plan(nullptr);

    const ServerStats st = srv.stats();
    EXPECT_EQ(st.submitted,
              std::uint64_t(kProducers) * kJobsPerProducer);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.rejected, 0u);
    // Exactly-once accounting: each accepted job is counted under one
    // terminal outcome.
    EXPECT_EQ(st.completed_ok + st.cancelled + st.deadline_exceeded,
              st.submitted);
    EXPECT_LE(st.space_peak_words, st.space_budget_words);
    EXPECT_GT(st.space_peak_words, 0u);
  }

  // Chaos actually engaged the scheduler's decision points.
  EXPECT_GT(plan.decisions(), 0u);

  // Invariant 2 from the published counters (what a monitoring pipeline
  // would read), not just the in-process stats struct.
  const obs::CounterRegistry& c = tracer.counters();
  EXPECT_GT(c.value("serve.space_budget_words"), 0u);
  EXPECT_LE(c.value("serve.space_peak_words"),
            c.value("serve.space_budget_words"));
  // The live gauges are maintained by the server itself (not recomputed
  // at publish): after a full drain both must have returned to zero.
  EXPECT_EQ(c.value("serve.queue_depth"), 0u);
  EXPECT_EQ(c.value("serve.inflight"), 0u);

  int completed = 0;
  for (auto& mine : jobs) {
    for (ClientJob& j : mine) {
      const std::string err = check_job(j);
      EXPECT_EQ(err, "") << workload::name(j.inst.kind()) << " job "
                         << j.handle.id();
      ++completed;
    }
  }
  EXPECT_EQ(completed, kProducers * kJobsPerProducer);
}

TEST(ServeConcurrency, ConcurrentSubmitAndShutdownIsClean) {
  // Producers race shutdown(): every submit either yields a handle that
  // completes, or a typed kUnavailable rejection — never a hang or tear.
  constexpr int kProducers = 3;
  ServerOptions o;
  o.threads = 2;
  Server srv(o);

  sched::NativeExecutor alloc(1);
  std::vector<std::vector<ClientJob>> jobs(kProducers);
  std::vector<std::thread> producers;
  std::atomic<int> unavailable{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Xoshiro256 rng(555 + std::uint64_t(p));
      for (int i = 0; i < 16; ++i) {
        jobs[p].push_back(make_job(alloc, rng));
        ClientJob& j = jobs[p].back();
        auto r = srv.submit(j.inst.request());
        if (!r.ok()) {
          EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
          unavailable.fetch_add(1);
          jobs[p].pop_back();
          continue;
        }
        j.handle = r.value();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  srv.shutdown();
  for (auto& t : producers) t.join();

  for (auto& mine : jobs) {
    for (ClientJob& j : mine) {
      const std::string err = check_job(j);
      EXPECT_EQ(err, "") << workload::name(j.inst.kind());
    }
  }
  const ServerStats st = srv.stats();
  EXPECT_EQ(st.submitted, st.completed_ok + st.cancelled +
                              st.deadline_exceeded);
  EXPECT_EQ(st.rejected, std::uint64_t(unavailable.load()));
}

}  // namespace
}  // namespace obliv::serve
