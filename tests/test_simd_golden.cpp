// Mode-identity goldens for the SIMD layer (util/simd.hpp): each native
// algorithm family produces bit-identical results under Mode::kAuto and
// Mode::kScalar (kScalar is exactly what an OBLIV_SIMD=OFF build runs, so
// this is the ON/OFF identity), and -- except spmdv, whose kernel fixes a
// different reduction order than the serial loop -- under Mode::kGeneric
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <limits>
#include <numbers>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "no/machine.hpp"
#include "no/ngep.hpp"
#include "sched/native_executor.hpp"
#include "simd_test_util.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace obliv {
namespace {

using namespace simd_test;

// ---------------------------------------------------------------------------
// Mode-identity goldens: native algorithm results across kernel modes.
// ---------------------------------------------------------------------------

template <class F>
auto with_mode(simd::Mode m, F&& f) {
  simd::ScopedMode sm(m);
  return f();
}

// Expect bitwise identity across all three modes (kernels preserve both the
// arithmetic and its order relative to the generic loops).
template <class F>
void expect_all_modes_identical(F&& f) {
  const auto a = with_mode(simd::Mode::kAuto, f);
  const auto s = with_mode(simd::Mode::kScalar, f);
  const auto n = with_mode(simd::Mode::kGeneric, f);
  EXPECT_TRUE(BitsEqual(a, s)) << "kAuto vs kScalar";
  EXPECT_TRUE(BitsEqual(a, n)) << "kAuto vs kGeneric";
}

TEST(SimdGolden, PrefixSumAndReduce) {
  expect_all_modes_identical([] {
    sched::NativeExecutor ex(4);
    auto buf = ex.make_buf<double>(1001);
    Xoshiro256 g(11);
    for (auto& v : buf.raw()) v = rnd(g);
    algo::mo_prefix_sum(ex, buf.ref());
    return buf.raw();
  });
  expect_all_modes_identical([] {
    sched::NativeExecutor ex(4);
    auto buf = ex.make_buf<std::uint64_t>(777);
    Xoshiro256 g(12);
    for (auto& v : buf.raw()) v = g() >> 32;
    algo::mo_prefix_sum(ex, buf.ref());
    return buf.raw();
  });
  expect_all_modes_identical([] {
    sched::NativeExecutor ex(4);
    auto buf = ex.make_buf<double>(513);
    Xoshiro256 g(13);
    for (auto& v : buf.raw()) v = rnd(g);
    const double r = algo::mo_reduce(ex, buf.ref(), algo::AddOp<double>{});
    return std::vector<double>{r};
  });
}

TEST(SimdGolden, TransposeDoubleAndComplex) {
  expect_all_modes_identical([] {
    const std::uint64_t n = 64;
    sched::NativeExecutor ex(4);
    auto a = ex.make_buf<double>(n * n);
    auto out = ex.make_buf<double>(n * n);
    Xoshiro256 g(21);
    for (auto& v : a.raw()) v = rnd(g);
    algo::mo_transpose(ex, a.ref(), out.ref(), n);
    return out.raw();
  });
  expect_all_modes_identical([] {
    const std::uint64_t n = 32;
    sched::NativeExecutor ex(4);
    auto a = ex.make_buf<std::complex<double>>(n * n);
    Xoshiro256 g(22);
    for (auto& v : a.raw()) v = {rnd(g), rnd(g)};
    auto m = sched::MatView<decltype(a.ref())>::full(a.ref(), n, n);
    algo::mo_transpose_inplace(ex, m);
    std::vector<double> flat(2 * n * n);
    std::memcpy(flat.data(), a.raw().data(), flat.size() * sizeof(double));
    return flat;
  });
}

TEST(SimdGolden, FftBothPaths) {
  expect_all_modes_identical([] {
    const std::uint64_t n = 256;
    sched::NativeExecutor ex(4);
    auto x = ex.make_buf<algo::cplx>(n);
    Xoshiro256 g(31);
    for (auto& v : x.raw()) v = {rnd(g), rnd(g)};
    algo::mo_fft(ex, x.ref());
    std::vector<double> flat(2 * n);
    std::memcpy(flat.data(), x.raw().data(), flat.size() * sizeof(double));
    return flat;
  });
  expect_all_modes_identical([] {
    const std::uint64_t n = 256;
    sched::NativeExecutor ex(4);
    auto x = ex.make_buf<algo::cplx>(n);
    Xoshiro256 g(32);
    for (auto& v : x.raw()) v = {rnd(g), rnd(g)};
    algo::iterative_fft(ex, x.ref());
    std::vector<double> flat(2 * n);
    std::memcpy(flat.data(), x.raw().data(), flat.size() * sizeof(double));
    return flat;
  });
}

TEST(SimdGolden, SortWithDuplicates) {
  expect_all_modes_identical([] {
    sched::NativeExecutor ex(4);
    auto v = ex.make_buf<double>(3000);
    Xoshiro256 g(41);
    for (auto& x : v.raw()) x = static_cast<double>(g() % 97);  // heavy dups
    algo::spms_sort(ex, v.ref());
    return v.raw();
  });
}

// Every mode at 1 and at 4 workers: all six results must match bitwise.
template <class F>
void expect_modes_and_threads_identical(F&& f) {
  const auto ref = with_mode(simd::Mode::kAuto, [&] { return f(4u); });
  for (const unsigned threads : {1u, 4u}) {
    for (const simd::Mode m :
         {simd::Mode::kAuto, simd::Mode::kScalar, simd::Mode::kGeneric}) {
      EXPECT_TRUE(BitsEqual(ref, with_mode(m, [&] { return f(threads); })))
          << "threads=" << threads << " mode=" << static_cast<int>(m);
    }
  }
}

TEST(SimdGolden, GepInstancesAndMatmul) {
  // n = 32 has 8 x 8 leaves; n = 24 has 6 x 6 leaves, which take the tile
  // kernels' 4-row and 4-column edge paths; n = 128 runs FW and matmul
  // through many rounds of function-D tiles.
  for (const std::uint64_t n : {32u, 24u, 128u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_modes_and_threads_identical([n](unsigned threads) {
      sched::NativeExecutor ex(threads);
      auto x = ex.make_buf<double>(n * n);
      Xoshiro256 g(51);
      for (auto& v : x.raw()) v = std::abs(rnd(g)) + 0.01;
      auto m = sched::MatView<decltype(x.ref())>::full(x.ref(), n, n);
      algo::igep<algo::FloydWarshallInstance>(ex, m);
      return x.raw();
    });
    expect_modes_and_threads_identical([n](unsigned threads) {
      sched::NativeExecutor ex(threads);
      auto c = ex.make_buf<double>(n * n);
      auto a = ex.make_buf<double>(n * n);
      auto b = ex.make_buf<double>(n * n);
      Xoshiro256 g(54);
      for (auto& v : a.raw()) v = rnd(g);
      for (auto& v : b.raw()) v = rnd(g);
      using Ref = decltype(c.ref());
      algo::mo_matmul(ex, sched::MatView<Ref>::full(c.ref(), n, n),
                      sched::MatView<Ref>::full(a.ref(), n, n),
                      sched::MatView<Ref>::full(b.ref(), n, n));
      return c.raw();
    });
    if (n == 128) continue;
    expect_modes_and_threads_identical([n](unsigned threads) {
      sched::NativeExecutor ex(threads);
      auto x = ex.make_buf<double>(n * n);
      Xoshiro256 g(52);
      for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
          // Diagonally dominant, so no pivot is near zero.
          x.raw()[i * n + j] = rnd(g) + (i == j ? 2.0 * n : 0.0);
        }
      }
      auto m = sched::MatView<decltype(x.ref())>::full(x.ref(), n, n);
      algo::igep<algo::GaussianInstance>(ex, m);
      return x.raw();
    });
    expect_modes_and_threads_identical([n](unsigned threads) {
      sched::NativeExecutor ex(threads);
      auto x = ex.make_buf<double>(n * n);
      Xoshiro256 g(53);
      for (auto& v : x.raw()) v = rnd(g);
      algo::MatMulEmbedInstance::half = n / 2;
      auto m = sched::MatView<decltype(x.ref())>::full(x.ref(), n, n);
      algo::igep<algo::MatMulEmbedInstance>(ex, m);
      return x.raw();
    });
  }
}

TEST(SimdGolden, NgepHostPath) {
  expect_all_modes_identical([] {
    const std::uint64_t n = 16;
    std::vector<double> x(n * n);
    Xoshiro256 g(61);
    for (auto& v : x) v = std::abs(rnd(g)) + 0.01;
    no::NoMachine mach(16, {{16, 4}});
    no::n_gep<algo::FloydWarshallInstance>(mach, x, n, /*use_dstar=*/true);
    return x;
  });
}

TEST(SimdGolden, SpmdvKernelModesMatchAndGenericClose) {
  auto run = [](simd::Mode mode) {
    simd::ScopedMode sm(mode);
    const auto a = algo::grid_matrix(16);
    sched::NativeExecutor ex(4);
    auto av = ex.make_buf<algo::SpmEntry>(a.nnz());
    auto a0 = ex.make_buf<std::uint64_t>(a.n + 1);
    auto xv = ex.make_buf<double>(a.n);
    auto yv = ex.make_buf<double>(a.n);
    av.raw() = a.av;
    a0.raw() = a.a0;
    Xoshiro256 g(71);
    for (auto& v : xv.raw()) v = rnd(g);
    algo::mo_spmdv(ex, av.ref(), a0.ref(), xv.ref(), yv.ref());
    return yv.raw();
  };
  const auto au = run(simd::Mode::kAuto);
  const auto sc = run(simd::Mode::kScalar);
  const auto ge = run(simd::Mode::kGeneric);
  // The strided-dot kernel shares one fixed reduction order between its
  // scalar and vector paths (bitwise identity), but that order differs from
  // the generic serial loop -- same values up to FP reassociation.
  EXPECT_TRUE(BitsEqual(au, sc));
  ASSERT_EQ(au.size(), ge.size());
  for (std::size_t i = 0; i < au.size(); ++i) {
    EXPECT_NEAR(au[i], ge[i], 1e-12) << i;
  }
}

}  // namespace
}  // namespace obliv
