#include "sched/native_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "sched/ws_deque.hpp"
#include "util/rng.hpp"

namespace obliv::sched {
namespace {

// ---------------------------------------------------------------------------
// WsDeque
// ---------------------------------------------------------------------------

TEST(WsDeque, OwnerLifoThiefFifo) {
  WsDeque<int*> dq(4);  // small capacity: exercises grow()
  int vals[100];
  for (int i = 0; i < 100; ++i) dq.push_bottom(&vals[i]);
  EXPECT_EQ(dq.steal_top(), &vals[0]);   // FIFO from the top
  EXPECT_EQ(dq.pop_bottom(), &vals[99]);  // LIFO from the bottom
  EXPECT_EQ(dq.steal_top(), &vals[1]);
  EXPECT_EQ(dq.pop_bottom(), &vals[98]);
  for (int i = 0; i < 96; ++i) EXPECT_NE(dq.pop_bottom(), nullptr);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
  EXPECT_TRUE(dq.empty());
}

TEST(WsDeque, EveryElementTakenExactlyOnceUnderConcurrentSteals) {
  constexpr int kN = 20000;
  WsDeque<int*> dq(8);
  std::vector<int> vals(kN);
  std::vector<std::atomic<int>> taken(kN);
  for (auto& t : taken) t.store(0);
  for (int i = 0; i < kN; ++i) vals[i] = i;

  std::atomic<bool> go{false};
  std::atomic<int> total{0};
  auto thief = [&] {
    while (!go.load()) {
    }
    for (;;) {
      if (int* p = dq.steal_top()) {
        taken[*p].fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_acq_rel);
      } else if (total.load(std::memory_order_acquire) == kN) {
        return;
      }
    }
  };
  std::thread t1(thief), t2(thief);
  go.store(true);
  // Owner interleaves pushes and pops.
  int pushed = 0;
  while (pushed < kN) {
    for (int burst = 0; burst < 64 && pushed < kN; ++burst) {
      dq.push_bottom(&vals[pushed++]);
    }
    if (int* p = dq.pop_bottom()) {
      taken[*p].fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  while (total.load(std::memory_order_acquire) != kN) {
    if (int* p = dq.pop_bottom()) {
      taken[*p].fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  t1.join();
  t2.join();
  for (int i = 0; i < kN; ++i) ASSERT_EQ(taken[i].load(), 1) << i;
}

// ---------------------------------------------------------------------------
// WorkStealingPool
// ---------------------------------------------------------------------------

// Fork shapes on the work-stealing backend, driven through the executor:
// grain 1, so every subtask of a cgc_sb_pfor is its own stealable unit.

TEST(WorkStealingPool, RunsAllTasks) {
  NativeExecutor ex(4, /*grain=*/1);
  std::atomic<int> count{0};
  ex.cgc_sb_pfor(100, /*space=*/1 << 20, [&](std::uint64_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealingPool, NestedParallelismDoesNotDeadlock) {
  // Fewer threads than nested groups.
  NativeExecutor ex(2, /*grain=*/1);
  std::atomic<int> leaves{0};
  ex.cgc_sb_pfor(8, 1 << 20, [&](std::uint64_t) {
    ex.cgc_sb_pfor(8, 1 << 10, [&](std::uint64_t) {
      leaves.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(WorkStealingPool, SingleThreadStillWorks) {
  NativeExecutor ex(1, /*grain=*/1);
  int x = 0;
  ex.sb_parallel({{1 << 20, [&] { x = 1; }}, {1 << 20, [&] { x += 2; }}});
  EXPECT_EQ(x, 3);
}

TEST(WorkStealingPool, RepeatedRootEntriesReuseSleepingWorkers) {
  NativeExecutor ex(4, /*grain=*/1);
  for (int round = 0; round < 300; ++round) {
    std::atomic<int> n{0};
    ex.cgc_sb_pfor(16, 1 << 20, [&](std::uint64_t) {
      n.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(n.load(), 16) << "round " << round;
  }
}

// join_interruptible, driven directly: the serve dispatcher is its only
// production caller.  The tasks below are built by hand so each test
// controls exactly when the joined task can finish.

/// Stack task running a lambda; the test keeps it alive until joined.
template <class F>
struct LambdaTask : Task {
  explicit LambdaTask(F f) : Task(&LambdaTask::invoke), fn(std::move(f)) {}
  static void invoke(Task* t) { static_cast<LambdaTask*>(t)->fn(); }
  F fn;
};

std::chrono::steady_clock::time_point far_future() {
  return std::chrono::steady_clock::now() + std::chrono::hours(1);
}

TEST(WorkStealingPool, JoinInterruptiblePastDeadlineLeavesTaskForJoin) {
  // One worker: nobody can steal the child, so only the joiner could run it.
  WorkStealingPool pool(1);
  bool ran = false;
  LambdaTask root([&] {
    LambdaTask child([&] { ran = true; });
    pool.fork(&child);
    const bool done = pool.join_interruptible(
        &child, std::chrono::steady_clock::now() - std::chrono::seconds(1),
        [] { return false; });
    EXPECT_FALSE(done);
    EXPECT_FALSE(ran);
    EXPECT_FALSE(child.finished());
    pool.join(&child);
    EXPECT_TRUE(ran);
  });
  pool.run_root(root);
  EXPECT_TRUE(ran);
}

TEST(WorkStealingPool, JoinInterruptibleQuitReturnsWhileStolenTaskRuns) {
  WorkStealingPool pool(2);
  std::atomic<bool> started{false}, release{false};
  int polls = 0;
  LambdaTask root([&] {
    // The child spins on worker 1 until released, kicking the pool so the
    // parked joiner re-polls its quit predicate.
    LambdaTask child([&] {
      started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        pool.kick();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    pool.fork(&child);
    // Wait for worker 1 to steal it; a kick wakes it even when the fork's
    // own wake-up was skipped.
    while (!started.load(std::memory_order_acquire)) {
      pool.kick();
      std::this_thread::yield();
    }
    const bool done = pool.join_interruptible(&child, far_future(),
                                              [&] { return ++polls >= 4; });
    EXPECT_FALSE(done);
    EXPECT_GE(polls, 4);
    EXPECT_FALSE(child.finished());
    release.store(true, std::memory_order_release);
    pool.join(&child);
    EXPECT_TRUE(child.finished());
  });
  pool.run_root(root);
}

TEST(WorkStealingPool, JoinInterruptibleReturnsTrueOnCompletion) {
  WorkStealingPool pool(2);
  std::atomic<int> ran{0};
  LambdaTask root([&] {
    LambdaTask child([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.fork(&child);
    EXPECT_TRUE(
        pool.join_interruptible(&child, far_future(), [] { return false; }));
    EXPECT_TRUE(child.finished());
  });
  pool.run_root(root);
  EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// NativeExecutor
// ---------------------------------------------------------------------------

TEST(NativeExecutor, PforCoversRangeOnceUnderContention) {
  NativeExecutor ex(4, /*grain=*/64);
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ex.cgc_pfor(0, n, 1, [&](std::uint64_t a, std::uint64_t b) {
    for (std::uint64_t k = a; k < b; ++k) {
      hits[k].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(hits[k].load(), 1) << k;
  }
}

TEST(NativeExecutor, SmallTasksRunInline) {
  // Tasks below the grain run sequentially on the calling thread: result
  // identical, no fork.
  NativeExecutor ex(4, /*grain=*/1 << 20);
  int order = 0;
  // Sequential, so ordered.
  ex.sb_parallel({{10, [&] { EXPECT_EQ(order++, 0); }},
                  {10, [&] { EXPECT_EQ(order++, 1); }}});
  EXPECT_EQ(order, 2);
}

TEST(NativeExecutor, SingleChunkPforRunsInlineOnCallingThread) {
  // A range that collapses to one chunk must not round-trip the queue.
  NativeExecutor ex(4, /*grain=*/1 << 12);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  ex.cgc_pfor(0, 100, 1, [&](std::uint64_t a, std::uint64_t b) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  // Same for CGC=>SB when all subtasks fit one grain batch.
  int sb_calls = 0;
  ex.cgc_sb_pfor(8, /*space=*/16, [&](std::uint64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++sb_calls;
  });
  EXPECT_EQ(sb_calls, 8);
}

TEST(NativeExecutor, OneThreadExecutorRunsEverythingInline) {
  NativeExecutor ex(1, /*grain=*/1);
  const auto caller = std::this_thread::get_id();
  std::uint64_t sum = 0;
  ex.cgc_pfor(0, 5000, 1, [&](std::uint64_t a, std::uint64_t b) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (std::uint64_t k = a; k < b; ++k) sum += k;
  });
  EXPECT_EQ(sum, 5000ull * 4999 / 2);
  std::uint64_t hits = 0;
  ex.cgc_sb_pfor(1000, 1 << 20, [&](std::uint64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++hits;
  });
  EXPECT_EQ(hits, 1000u);
}

TEST(NativeExecutor, CgcSbPforExecutesEveryTask) {
  NativeExecutor ex(3, 8);
  std::vector<std::atomic<int>> hits(500);
  for (auto& h : hits) h.store(0);
  ex.cgc_sb_pfor(hits.size(), 1 << 16, [&](std::uint64_t s) {
    hits[s].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(NativeExecutor, DeepRecursiveForkJoin) {
  NativeExecutor ex(4, 1);
  std::atomic<std::uint64_t> sum{0};
  // Binary recursion summing 1..1024 via leaf tasks.
  std::function<void(std::uint64_t, std::uint64_t)> rec =
      [&](std::uint64_t lo, std::uint64_t hi) {
        if (hi - lo == 1) {
          sum.fetch_add(lo, std::memory_order_relaxed);
          return;
        }
        const std::uint64_t mid = (lo + hi) / 2;
        ex.sb_parallel({{(hi - lo) * 8, [&] { rec(lo, mid); }},
                        {(hi - lo) * 8, [&] { rec(mid, hi); }}});
      };
  rec(1, 1025);
  EXPECT_EQ(sum.load(), 1024u * 1025 / 2);
}

TEST(NativeExecutor, StressRepeatedParallelSections) {
  NativeExecutor ex(4, 1);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    const auto bump = [&] { n.fetch_add(1, std::memory_order_relaxed); };
    ex.sb_parallel({{1 << 12, bump}, {1 << 12, bump}, {1 << 12, bump},
                    {1 << 12, bump}, {1 << 12, bump}, {1 << 12, bump},
                    {1 << 12, bump}, {1 << 12, bump}});
    ASSERT_EQ(n.load(), 8) << "round " << round;
  }
}

TEST(NativeExecutor, MixedSpaceBoundsKeepSmallTasksLocal) {
  // Below-grain siblings of an above-grain task still run (on some thread),
  // exactly once each.
  NativeExecutor ex(4, /*grain=*/1 << 10);
  std::atomic<int> big{0}, small{0};
  const auto b = [&] { big.fetch_add(1, std::memory_order_relaxed); };
  const auto s = [&] { small.fetch_add(1, std::memory_order_relaxed); };
  ex.sb_parallel({{1 << 20, b}, {8, s}, {8, s}, {8, s}, {8, s}, {8, s},
                  {8, s}, {1 << 20, b}});
  EXPECT_EQ(big.load(), 2);
  EXPECT_EQ(small.load(), 6);
}

}  // namespace
}  // namespace obliv::sched
