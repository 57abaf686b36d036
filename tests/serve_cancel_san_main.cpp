// Standalone sanitizer smoke + chaos soak for PR 10's running-job
// cancellation machinery (src/serve + sched::CancelToken).
//
// Built under TSan and ASan by tests/CMakeLists.txt (serve_cancel_tsan /
// serve_cancel_asan): cancel() poisoning a token that workers are
// concurrently reading at every fork/steal/anchor is the newest
// cross-thread edge in the tree, so every ctest run races it directly --
// cancel storms against *running* jobs, cancel x running-deadline races,
// server destruction while poisoned trees are still unwinding, and
// submit_with_retry hammering a shedding server.  The same binary is also
// registered unsanitized as the `slow`-label chaos soak (`--soak` scales
// the rounds and switches the fault schedule to cancel_chaos(), which
// injects kCancelPoison / kWatchdogStall at scheduler anchor points).
// No gtest: the sanitizer runtime is the checker; the scenario asserts
// only keep the workload honest.  Mirrors serve_san_main.cpp.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace obliv::serve {
namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

sched::NatRef<std::uint64_t> ref_of(std::vector<std::uint64_t>& v) {
  return sched::NatRef<std::uint64_t>(v.data(), v.size());
}

struct SortJob {
  std::vector<std::uint64_t> keys;
  JobHandle handle;
};

SortJob make_sort_job(util::Xoshiro256& rng, std::size_t n) {
  SortJob j;
  j.keys.resize(n);
  for (auto& x : j.keys) x = rng();
  return j;
}

/// A completed job's status must be one of the typed terminal outcomes;
/// an ok job must actually hold a sorted result.
void check_outcome(SortJob& j, const char* what) {
  if (!j.handle.valid()) return;
  const Status s = j.handle.wait();
  check(s.ok() || s.code() == ErrorCode::kCancelled ||
            s.code() == ErrorCode::kDeadlineExceeded,
        what);
  if (s.ok()) {
    check(std::is_sorted(j.keys.begin(), j.keys.end()), what);
  }
}

/// Cancel storm against RUNNING jobs: a canceller thread per client polls
/// for the running() edge and poisons mid-execution while workers are
/// inside the tree.  TSan vets the token load at every fork/steal against
/// the store in cancel(); the post-storm clean job proves pool reuse.
void running_cancel_storm(int rounds, const fault::FaultOptions& fo) {
  for (int round = 0; round < rounds; ++round) {
    fault::FaultPlan plan(0xCA9C0000 + std::uint64_t(round), fo);
    ServerOptions o;
    o.threads = 4;
    obs::Tracer tracer(o.threads, 1 << 12);
    Server srv(o);
    srv.set_tracer(&tracer);
    srv.set_fault_plan(&plan);

    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c, round] {
        util::Xoshiro256 rng(7000 + std::uint64_t(round) * 31 +
                             std::uint64_t(c));
        std::vector<SortJob> mine;
        mine.reserve(8);
        for (int i = 0; i < 8; ++i) {
          mine.push_back(make_sort_job(rng, std::size_t{1} << 15));
          auto r = srv.submit(SortRequest{ref_of(mine.back().keys)});
          check(r.ok(), "running_cancel_storm: submit accepted");
          if (r.ok()) mine.back().handle = r.value();
        }
        std::thread canceller([&mine] {
          // Poll for the running edge, then poison mid-execution.
          for (auto& j : mine) {
            if (!j.handle.valid()) continue;
            for (int spin = 0; spin < 4000; ++spin) {
              if (j.handle.running() || j.handle.done()) break;
              std::this_thread::yield();
            }
            const bool won = j.handle.cancel();
            if (won) {
              check(j.handle.wait().code() == ErrorCode::kCancelled,
                    "running_cancel_storm: cancel() true => kCancelled");
            }
          }
        });
        canceller.join();
        for (auto& j : mine) {
          check_outcome(j, "running_cancel_storm: typed outcome");
        }
      });
    }
    for (auto& t : clients) t.join();

    // Pool reuse after the storm: one clean job on the same server.
    // Clear the fault plan first -- under cancel_chaos() the
    // kCancelPoison site may spuriously poison any tree, so "completes
    // ok" is only a valid assertion with faults off.
    srv.set_fault_plan(nullptr);
    util::Xoshiro256 rng(60 + std::uint64_t(round));
    SortJob clean = make_sort_job(rng, std::size_t{1} << 14);
    auto r = srv.submit(SortRequest{ref_of(clean.keys)});
    check(r.ok(), "running_cancel_storm: post-storm submit accepted");
    if (r.ok()) {
      check(r.value().wait().ok(), "running_cancel_storm: post-storm ok");
      check(std::is_sorted(clean.keys.begin(), clean.keys.end()),
            "running_cancel_storm: post-storm sorted");
    }
    srv.shutdown();
    srv.set_fault_plan(nullptr);
    const ServerStats st = srv.stats();
    check(st.completed_ok + st.cancelled + st.deadline_exceeded ==
              st.submitted,
          "running_cancel_storm: exactly-once accounting");
  }
}

/// Cancel x running-deadline races: short deadlines expire while cancels
/// fly at the same jobs from another thread.  Exactly one reason wins per
/// job, and cancel() returning true commits the final status to
/// kCancelled -- the fused poison/result protocol under contention.
void cancel_deadline_races(int rounds, const fault::FaultOptions& fo) {
  for (int round = 0; round < rounds; ++round) {
    fault::FaultPlan plan(0xDEAD0000 + std::uint64_t(round), fo);
    ServerOptions o;
    o.threads = 2;
    Server srv(o);
    srv.set_fault_plan(&plan);
    util::Xoshiro256 rng(8000 + std::uint64_t(round) * 13);

    std::vector<SortJob> jobs;
    std::vector<std::uint8_t> cancel_won(16, 0);
    jobs.reserve(16);
    for (int i = 0; i < 16; ++i) {
      jobs.push_back(make_sort_job(rng, std::size_t{1} << 13));
      JobOptions jo;
      jo.deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(rng.below(5000));
      auto r = srv.submit(SortRequest{ref_of(jobs.back().keys)}, jo);
      check(r.ok(), "cancel_deadline_races: submit accepted");
      if (r.ok()) jobs.back().handle = r.value();
    }
    std::thread canceller([&] {
      util::Xoshiro256 crng(31 + std::uint64_t(round));
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!jobs[i].handle.valid()) continue;
        for (std::uint64_t spin = crng.below(64); spin > 0; --spin) {
          std::this_thread::yield();
        }
        cancel_won[i] = jobs[i].handle.cancel() ? 1 : 0;
      }
    });
    canceller.join();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].handle.valid()) continue;
      const Status s = jobs[i].handle.wait();
      check(s.ok() || s.code() == ErrorCode::kCancelled ||
                s.code() == ErrorCode::kDeadlineExceeded,
            "cancel_deadline_races: typed outcome");
      if (cancel_won[i]) {
        check(s.code() == ErrorCode::kCancelled,
              "cancel_deadline_races: cancel win is authoritative");
      }
    }
    srv.shutdown();
    srv.set_fault_plan(nullptr);
    const ServerStats st = srv.stats();
    check(st.completed_ok + st.cancelled + st.deadline_exceeded ==
              st.submitted,
          "cancel_deadline_races: exactly-once accounting");
  }
}

/// ~Server while poisoned trees are still unwinding: cancel running jobs
/// and immediately destroy the server.  The destructor's drain must wait
/// out the unwind; handles kept past the scope must stay usable (ASan:
/// no use-after-free on the shared core or the token inside it).
void destroy_while_poisoned(int rounds) {
  util::Xoshiro256 rng(9000);
  for (int round = 0; round < rounds; ++round) {
    std::vector<SortJob> jobs;
    {
      ServerOptions o;
      o.threads = 2;
      Server srv(o);
      for (int i = 0; i < 6; ++i) {
        jobs.push_back(make_sort_job(rng, std::size_t{1} << 14));
        auto r = srv.submit(SortRequest{ref_of(jobs.back().keys)});
        check(r.ok(), "destroy_while_poisoned: submit accepted");
        if (r.ok()) jobs.back().handle = r.value();
      }
      for (auto& j : jobs) {
        if (!j.handle.valid()) continue;
        for (int spin = 0; spin < 2000; ++spin) {
          if (j.handle.running() || j.handle.done()) break;
          std::this_thread::yield();
        }
        j.handle.cancel();
      }
    }  // destructor drains mid-unwind
    for (auto& j : jobs) {
      check_outcome(j, "destroy_while_poisoned: typed outcome");
    }
    jobs.clear();
  }
}

/// submit_with_retry from several threads against a deliberately shedding
/// server: the hint parser, the jittered backoff, and the shed counter
/// all run under contention.
void retry_under_shed(int rounds) {
  for (int round = 0; round < rounds; ++round) {
    const std::size_t na = std::size_t{1} << 15;
    ServerOptions o;
    o.threads = 2;
    o.space_budget_words = 4 * na;
    o.shed_wait_p99_ns = 1;
    o.shed_min_samples = 1;
    Server srv(o);

    util::Xoshiro256 rng(10000 + std::uint64_t(round));
    SortJob big = make_sort_job(rng, na);
    auto rb = srv.submit(SortRequest{ref_of(big.keys)});
    check(rb.ok(), "retry_under_shed: big job accepted");
    if (rb.ok()) big.handle = rb.value();

    std::vector<std::thread> clients;
    std::atomic<int> landed{0}, exhausted{0};
    std::vector<std::vector<std::uint64_t>> bufs(3);
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c, round] {
        util::Xoshiro256 crng(11000 + std::uint64_t(round) * 7 +
                              std::uint64_t(c));
        bufs[c].resize(1 + crng.below(512));
        for (auto& x : bufs[c]) x = crng();
        RetryPolicy pol;
        pol.max_attempts = 5;
        pol.initial_backoff = std::chrono::milliseconds(1);
        pol.max_backoff = std::chrono::milliseconds(4);
        pol.seed = 0x5EED + std::uint64_t(c);
        auto r = submit_with_retry(srv, SortRequest{ref_of(bufs[c])}, {},
                                   pol);
        if (r.ok()) {
          check(r.value().wait().ok(), "retry_under_shed: landed job ok");
          check(std::is_sorted(bufs[c].begin(), bufs[c].end()),
                "retry_under_shed: landed job sorted");
          landed.fetch_add(1);
        } else {
          check(r.status().code() == ErrorCode::kUnavailable,
                "retry_under_shed: exhausted retries stay typed");
          exhausted.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    check(landed.load() + exhausted.load() == 3,
          "retry_under_shed: every client resolved");
    if (big.handle.valid()) {
      check(big.handle.wait().ok(), "retry_under_shed: big job ok");
    }
    srv.shutdown();
  }
}

}  // namespace
}  // namespace obliv::serve

int main(int argc, char** argv) {
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) soak = true;
  }
  // Sanitizer smoke: few rounds (TSan is ~10x), plain schedule chaos.
  // Soak: more rounds and cancel_chaos(), which additionally injects
  // kCancelPoison at forks/steals and kWatchdogStall in the dispatcher
  // sweep -- poisons arriving from *inside* the scheduler, not just from
  // client threads.
  const int rounds = soak ? 12 : 3;
  const obliv::fault::FaultOptions fo =
      soak ? obliv::fault::FaultOptions::cancel_chaos()
           : obliv::fault::FaultOptions::chaos();
  obliv::serve::running_cancel_storm(rounds, fo);
  obliv::serve::cancel_deadline_races(rounds, fo);
  obliv::serve::destroy_while_poisoned(soak ? 12 : 4);
  obliv::serve::retry_under_shed(soak ? 8 : 3);
  if (obliv::serve::failures != 0) {
    std::fprintf(stderr, "%d serve-cancel smoke failure(s)\n",
                 obliv::serve::failures);
    return 1;
  }
  std::printf("serve cancel %s: all scenarios clean\n",
              soak ? "chaos soak" : "sanitizer smoke");
  return 0;
}
