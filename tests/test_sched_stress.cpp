// Scheduler regression stress for the work-stealing NativeExecutor.
//
// Two failure classes the shared-queue rewrite must not reintroduce:
//
//   1. deadlock/starvation under *mixed* nesting -- deep sb_parallel
//      recursion whose leaves issue concurrent cgc_pfor loops from sibling
//      tasks, so joiners must help (run their own deque, then steal) rather
//      than wait passively; and
//   2. schedule-dependent results -- MO algorithms decompose data by
//      problem size only, so scan/sort/GEP outputs must be bit-identical
//      across 1/2/8-thread executors regardless of how ranges were split
//      or stolen.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <vector>

#include "algo/gep.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "sched/native_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"

namespace obliv {
namespace {

// ---------------------------------------------------------------------------
// Deadlock / starvation stress
// ---------------------------------------------------------------------------

// Binary sb_parallel recursion; every leaf runs a cgc_pfor, so at any moment
// several sibling subtrees issue parallel loops concurrently and steal from
// each other.
void nested_storm(sched::NativeExecutor& ex, std::uint64_t lo,
                  std::uint64_t hi, std::vector<std::atomic<int>>& hits) {
  if (hi - lo <= 4) {
    ex.cgc_pfor(lo, hi, 1, [&](std::uint64_t a, std::uint64_t b) {
      for (std::uint64_t k = a; k < b; ++k) {
        hits[k].fetch_add(1, std::memory_order_relaxed);
      }
    });
    return;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  const std::uint64_t space = (hi - lo) * 8;
  ex.sb_parallel({{space, [&] { nested_storm(ex, lo, mid, hits); }},
                  {space, [&] { nested_storm(ex, mid, hi, hits); }}});
}

TEST(SchedStress, DeepNestingWithConcurrentPforsFromSiblings) {
  for (unsigned threads : {2u, 4u, 8u}) {
    sched::NativeExecutor ex(threads, /*grain=*/1);
    const std::uint64_t n = 1 << 12;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    nested_storm(ex, 0, n, hits);
    for (std::uint64_t k = 0; k < n; ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "threads=" << threads << " k=" << k;
    }
  }
}

TEST(SchedStress, RepeatedMixedNestingDoesNotStarve) {
  sched::NativeExecutor ex(4, /*grain=*/8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    const auto body = [&] {
      ex.cgc_pfor(0, 2048, 1, [&](std::uint64_t a, std::uint64_t b) {
        std::uint64_t local = 0;
        for (std::uint64_t k = a; k < b; ++k) local += k;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    };
    ex.sb_parallel({{1 << 16, body}, {1 << 16, body}, {1 << 16, body},
                    {1 << 16, body}, {1 << 16, body}, {1 << 16, body}});
    ASSERT_EQ(sum.load(), 6ull * (2048ull * 2047 / 2)) << "round " << round;
  }
}

TEST(SchedStress, ManySmallRootsReuseBlockedWorkers) {
  // Each top-level op is tiny; sleeping workers must wake (or stay out of
  // the way) without losing tasks or deadlocking on the eventcount.
  sched::NativeExecutor ex(8, /*grain=*/4);
  std::uint64_t total = 0;
  for (int round = 0; round < 400; ++round) {
    std::atomic<std::uint64_t> n{0};
    ex.cgc_pfor(0, 64, 1, [&](std::uint64_t a, std::uint64_t b) {
      n.fetch_add(b - a, std::memory_order_relaxed);
    });
    total += n.load();
  }
  EXPECT_EQ(total, 400ull * 64);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

std::vector<double> run_scan(unsigned threads, std::uint64_t n) {
  sched::NativeExecutor ex(threads, /*grain=*/32);
  auto buf = ex.make_buf<double>(n);
  auto scratch = ex.make_buf<double>(n);
  util::Xoshiro256 rng(42);
  for (auto& v : buf.raw()) v = rng.uniform() - 0.5;
  algo::mo_scan_inclusive(ex, buf.ref(), scratch.ref(),
                          [](double a, double b) { return a + b; });
  return buf.raw();
}

std::vector<std::uint64_t> run_sort(unsigned threads, std::uint64_t n) {
  sched::NativeExecutor ex(threads, /*grain=*/32);
  auto buf = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(43);
  for (auto& v : buf.raw()) v = rng();
  algo::spms_sort(ex, buf.ref());
  return buf.raw();
}

std::vector<double> run_gep(unsigned threads, std::uint64_t n) {
  sched::NativeExecutor ex(threads, /*grain=*/32);
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(44);
  for (auto& v : buf.raw()) v = rng.uniform();
  using Mat = sched::MatView<sched::NatRef<double>>;
  algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n), 8);
  return buf.raw();
}

template <class T>
void expect_bit_identical(const std::vector<T>& a, const std::vector<T>& b,
                          const char* what, unsigned threads) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what << ": result differs between 1 and " << threads << " threads";
}

TEST(SchedDeterminism, ScanBitIdenticalAcrossThreadCounts) {
  const auto base = run_scan(1, 1 << 14);
  for (unsigned threads : {2u, 8u}) {
    expect_bit_identical(base, run_scan(threads, 1 << 14), "scan", threads);
  }
}

TEST(SchedDeterminism, SortBitIdenticalAcrossThreadCounts) {
  const auto base = run_sort(1, 1 << 13);
  for (unsigned threads : {2u, 8u}) {
    expect_bit_identical(base, run_sort(threads, 1 << 13), "sort", threads);
  }
}

TEST(SchedDeterminism, GepBitIdenticalAcrossThreadCounts) {
  const auto base = run_gep(1, 96);
  for (unsigned threads : {2u, 8u}) {
    expect_bit_identical(base, run_gep(threads, 96), "gep", threads);
  }
}

}  // namespace
}  // namespace obliv
