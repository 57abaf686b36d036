// Allocation as a property: the test-only counting operator new
// (alloc_counter.hpp) checks what the native leaves allocate, independent
// of timing.  Every native run here uses one worker, so all of its
// scheduler constructs run on the counting thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <memory>
#include <thread>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "alloc_counter.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"

namespace obliv {
namespace {

using testing::AllocCounter;

/// Allocates and frees `n` bytes through a call the optimizer may not
/// elide (a new-expression whose pointer does not escape may be removed).
void alloc_and_free(std::size_t n) { ::operator delete(::operator new(n)); }

TEST(AllocCounter, CountsOnlyItsThreadAndScope) {
  alloc_and_free(1000);  // before any scope
  std::uint64_t count, bytes, largest, big, inner_count, inner_bytes;
  {
    AllocCounter outer(64);
    alloc_and_free(16);
    alloc_and_free(100);
    std::thread t([] { alloc_and_free(5000); });
    t.join();
    {
      AllocCounter inner;
      alloc_and_free(8);
      inner_count = inner.count();
      inner_bytes = inner.bytes();
    }
    alloc_and_free(64);
    // Snapshot before any assertion: gtest's messages allocate too.
    count = outer.count();
    bytes = outer.bytes();
    largest = outer.largest();
    big = outer.big();
  }
  EXPECT_EQ(inner_count, 1u);
  EXPECT_EQ(inner_bytes, 8u);
  // std::thread's launch state is allocated on this thread; the 5000
  // bytes allocated on the new thread are not seen.
  EXPECT_GE(count, 3u);
  EXPECT_GE(bytes, 180u);
  EXPECT_LT(largest, 5000u);
  EXPECT_GE(big, 2u);  // 100 and 64 bytes
}

/// Bytes the native mo_prefix_sum allocates for n elements of T.
template <class T>
std::uint64_t prefix_sum_bytes(std::uint64_t n) {
  sched::NativeExecutor ex(1);
  std::vector<T> v(n, T{1});
  AllocCounter count;
  algo::mo_prefix_sum(ex, sched::NatRef<T>(v.data(), n));
  EXPECT_EQ(v.back(), static_cast<T>(n));
  return count.bytes();
}

TEST(NativeLeaf, PrefixSumAllocatesOnlyBlockSums) {
  constexpr std::uint64_t n = 1 << 20;
  // The block leaf keeps one sum per 2048 elements (512 words here); the
  // recursion's n-word scratch would be 256 times the bound.
  EXPECT_LT(prefix_sum_bytes<std::int64_t>(n), n / 256 * 8);
  EXPECT_LT(prefix_sum_bytes<double>(n), n / 256 * 8);
  EXPECT_LT(prefix_sum_bytes<std::uint64_t>(n), n / 256 * 8);
}

TEST(NativeLeaf, TransposesAllocateNoIntermediate) {
  sched::NativeExecutor ex(1);
  {
    constexpr std::uint64_t side = 512;
    std::vector<double> a(side * side, 1.0), out(side * side);
    AllocCounter count(side * side * sizeof(double));
    algo::mo_transpose(ex, sched::NatRef<double>(a.data(), a.size()),
                       sched::NatRef<double>(out.data(), out.size()), side);
    EXPECT_EQ(count.big(), 0u) << "largest " << count.largest() << " bytes";
  }
  // MO-FFT(2^16) works on one n1 x n1 matrix, n1 = 256, allocated once;
  // its three transposes of that matrix must allocate nothing that large.
  constexpr std::uint64_t n = 1 << 16, n1 = 256;
  std::vector<algo::cplx> x(n, algo::cplx(1.0, -1.0));
  AllocCounter count(n1 * n1 * sizeof(algo::cplx));
  algo::mo_fft(ex, sched::NatRef<algo::cplx>(x.data(), n));
  EXPECT_EQ(count.big(), 1u) << "largest " << count.largest() << " bytes";
}

TEST(NativeLeaf, FftAllocatesAtMostTwiceItsInput) {
  // A 2^18-point transform allocates its top level's n1 x n1 matrix (n1 =
  // 512, as large as the input) and one matrix per non-leaf level below;
  // the 1024 leaf calls of 512 points each work on stack scratch.
  constexpr std::uint64_t n = 1 << 18;
  sched::NativeExecutor ex(1);
  std::vector<algo::cplx> x(n, algo::cplx(1.0, -1.0));
  AllocCounter count;
  algo::mo_fft(ex, sched::NatRef<algo::cplx>(x.data(), n));
  const std::uint64_t bytes = count.bytes();
  EXPECT_LE(bytes, 2 * n * sizeof(algo::cplx));
  EXPECT_EQ(x[0], algo::cplx(double(n), -double(n)));
}

TEST(NativeLeaf, PullAllocatesNothing) {
  constexpr std::uint64_t n = 1 << 14;
  sched::NativeExecutor ex(1);
  std::vector<std::uint64_t> target(n), field(3 * n), out(3 * n);
  for (std::uint64_t v = 0; v < n; ++v) {
    target[v] = v % 9 == 0 ? algo::kNil : (v * 5 + 3) % n;
    field[v] = field[n + v] = field[2 * n + v] = v;
  }
  using Ref = sched::NatRef<std::uint64_t>;
  auto part = [](std::vector<std::uint64_t>& x, std::uint64_t k) {
    return Ref(x.data() + k * n, n);
  };
  const Ref t(target.data(), n);
  std::uint64_t pull, pull3;
  {
    AllocCounter count;
    algo::mo_pull(ex, t, part(field, 0), part(out, 0), 7);
    pull = count.count();
  }
  {
    AllocCounter count;
    algo::mo_pull3(ex, t, part(field, 0), part(field, 1), part(field, 2),
                   part(out, 0), part(out, 1), part(out, 2), 7, 8, 9);
    pull3 = count.count();
  }
  EXPECT_EQ(pull, 0u);
  EXPECT_EQ(pull3, 0u);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t s = target[v];
    EXPECT_EQ(out[2 * n + v], s == algo::kNil ? 9 : s) << v;
  }
}

TEST(NativeLeaf, SpmdvAllocatesNothing) {
  // A heap-allocated fork body per recursion node would be 65,536 here.
  algo::SparseMatrix a = algo::grid_matrix_reordered(256);
  std::vector<double> x(a.n, 0.5), y(a.n);
  sched::NativeExecutor ex(1);
  std::uint64_t allocs;
  {
    AllocCounter count;
    algo::mo_spmdv(ex, sched::NatRef<algo::SpmEntry>(a.av.data(), a.nnz()),
                   sched::NatRef<std::uint64_t>(a.a0.data(), a.n + 1),
                   sched::NatRef<double>(x.data(), a.n),
                   sched::NatRef<double>(y.data(), a.n));
    allocs = count.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(y, algo::spmdv_reference(a, x));
}

TEST(NativeLeaf, SortAllocations) {
  // Balanced buckets all fit the leaf, so one SPMS level allocates its
  // buffers (samples, splitters, the two k x k count matrices, the output,
  // the scan's block sums) and nothing recurses.  Clustered samples sent
  // most keys through a second level: 320 allocations, 5.35 n words.
  constexpr std::uint64_t n = 1 << 18;
  std::vector<std::uint64_t> keys(n);
  util::Xoshiro256 g(91);
  for (auto& k : keys) k = g();
  auto want = keys;
  std::sort(want.begin(), want.end());
  sched::NativeExecutor ex(1);
  std::uint64_t allocs, bytes;
  {
    AllocCounter count;
    algo::spms_sort(ex, sched::NatRef<std::uint64_t>(keys.data(), n));
    allocs = count.count();
    bytes = count.bytes();
  }
  EXPECT_LE(allocs, 16u);
  EXPECT_LE(bytes / 8.0, 3.25 * n) << "words";
  EXPECT_EQ(keys, want);
  // A leaf-sized sort is one radix leaf on its stack scratch.
  keys.resize(sched::kNativeLeafWords);
  for (auto& k : keys) k = g();
  want = keys;
  std::sort(want.begin(), want.end());
  {
    AllocCounter count;
    algo::spms_sort(ex, sched::NatRef<std::uint64_t>(keys.data(),
                                                     keys.size()));
    allocs = count.count();
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(keys, want);
}

TEST(NativeLeaf, ForksAllocateNothing) {
  // Every SB fork above the leaf borrows its bodies: a task vector per
  // fork round, or a std::function per body capture over 16 bytes, would
  // show up here as thousands of allocations.
  constexpr std::uint64_t n = 256;
  using Mat = sched::MatView<sched::NatRef<double>>;
  auto full = [](std::vector<double>& v) {
    return Mat::full(sched::NatRef<double>(v.data(), v.size()), n, n);
  };
  sched::NativeExecutor ex(1);
  std::vector<double> a(n * n, 1.0), b(n * n, 1.0), c(n * n, 0.0);
  std::vector<double> fw(n * n);
  util::Xoshiro256 g(5);
  for (auto& w : fw) w = static_cast<double>(1 + g() % 100);
  std::vector<double> fw_want = fw;
  algo::gep_reference<algo::FloydWarshallInstance>(fw_want, n);
  std::vector<double> t(n * n), t_out(n * n);
  for (std::uint64_t i = 0; i < n * n; ++i) t[i] = static_cast<double>(i);
  std::uint64_t matmul, gep, transpose;
  {
    AllocCounter count;
    algo::mo_matmul(ex, full(c), full(a), full(b));
    matmul = count.count();
  }
  {
    AllocCounter count;
    algo::igep<algo::FloydWarshallInstance>(ex, full(fw));
    gep = count.count();
  }
  {
    AllocCounter count;
    algo::recursive_transpose(ex, sched::NatRef<double>(t.data(), n * n),
                              sched::NatRef<double>(t_out.data(), n * n), n);
    transpose = count.count();
  }
  EXPECT_EQ(matmul, 0u);
  EXPECT_EQ(gep, 0u);
  EXPECT_EQ(transpose, 0u);
  EXPECT_EQ(c, std::vector<double>(n * n, static_cast<double>(n)));
  EXPECT_EQ(fw, fw_want);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(t_out[j * n + i], t[i * n + j]) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace obliv
