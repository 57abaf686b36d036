// Native leaves (sched::kNativeLeafWords): native SPMS sort, MO-FFT,
// prefix scan, MO-MT, matmul, I-GEP, SpM-DV and the list-ranking pulls on
// both sides of the leaf size reproduce the simulator, which never takes a
// leaf.  obliv_assert_tests compiles this file too, so every case also runs
// against the library with its asserts on.
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
#include "algo/graph.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "simd_test_util.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace obliv {
namespace {

using namespace simd_test;


// The kernel gate must be an explicit marker: native refs qualify, the
// simulator's counter-bearing refs must not (they also expose raw()).
static_assert(sched::is_direct_ref_v<sched::NatRef<double>>);
static_assert(!sched::is_direct_ref_v<sched::SimRef<double>>);
static_assert(!sched::is_direct_ref_v<double*>);

// ---------------------------------------------------------------------------
// Native serial leaves: native results on both sides of kNativeLeafWords
// must equal the simulator's, which runs the full recursion.
// ---------------------------------------------------------------------------

/// Runs `algo` on a fresh buffer holding `in` and returns the buffer.
template <class Exec, class T, class Algo>
std::vector<T> run_on(Exec& ex, const std::vector<T>& in, Algo&& algo) {
  auto buf = ex.template make_buf<T>(in.size());
  buf.raw() = in;
  algo(buf.ref());
  return buf.raw();
}

/// Each native run (kAuto/kScalar x 1/4 workers) must equal `want` under
/// `eq`; runs are compared as they finish, so that at most two copies of a
/// large input are alive.
template <class T, class Algo, class Eq>
void expect_native_runs(const std::vector<T>& in, const std::vector<T>& want,
                        Algo&& algo, Eq&& eq) {
  for (const simd::Mode m : {simd::Mode::kAuto, simd::Mode::kScalar}) {
    simd::ScopedMode sm(m);
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)) + ", " +
                   std::to_string(threads) + " workers");
      sched::NativeExecutor ex(threads);
      EXPECT_TRUE(eq(want, run_on(ex, in, [&](auto ref) { algo(ex, ref); })));
    }
  }
}

/// gtest assertion results as callables for expect_native_runs.
const auto kBitsEqual = [](const auto& a, const auto& b) {
  return BitsEqual(a, b);
};
const auto kSameValues = [](const auto& a, const auto& b) {
  return SameValues(a, b);
};

template <class T, class Algo>
std::vector<T> sim_run(const std::vector<T>& in, std::uint64_t space,
                       Algo&& algo) {
  sched::SimExecutor ex(hm::MachineConfig::shared_l2(4));
  return run_on(ex, in, [&](auto ref) {
    ex.run(space, [&] { algo(ex, ref); });
  });
}

std::vector<double> flat_doubles(const std::vector<algo::cplx>& v) {
  std::vector<double> d(2 * v.size());
  std::memcpy(d.data(), v.data(), d.size() * sizeof(double));
  return d;
}

TEST(NativeLeaf, FftMatchesSim) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  auto fft = [](auto& ex, auto ref) { algo::mo_fft(ex, ref); };
  Xoshiro256 g(81);
  for (std::uint64_t n = 2; n <= 4096; n *= 2) {
    // Random values, then with signed zeros and subnormals, then with one
    // infinity, then with one NaN.
    std::vector<std::vector<algo::cplx>> inputs(4);
    for (auto& in : inputs) {
      in.resize(n);
      for (auto& v : in) v = {rnd(g), rnd(g)};
    }
    for (std::uint64_t i = 0; i < n; i += 3) {
      inputs[1][i] = {i % 2 ? -0.0 : 0.0, i % 4 < 2 ? kSub : -kSub * 3};
    }
    inputs[2][n / 2] = {-kInf, 1.0};
    inputs[2][n - 1] = {0.5, kInf};
    inputs[3][n / 3] = {kNaN, -0.0};
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      SCOPED_TRACE("n=" + std::to_string(n) + " input " + std::to_string(s));
      expect_native_runs(inputs[s], sim_run(inputs[s], 6 * n, fft), fft,
                         [](const auto& a, const auto& b) {
                           return SameValues(flat_doubles(a), flat_doubles(b));
                         });
    }
  }
}

/// Key patterns: uniform, 64 distinct values, all equal, sorted, reversed.
std::vector<std::uint64_t> key_pattern(int p, std::size_t n, Xoshiro256& g) {
  std::vector<std::uint64_t> k(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (p) {
      case 0: k[i] = g(); break;
      case 1: k[i] = g.below(64); break;
      case 2: k[i] = 7; break;
      case 3: k[i] = i; break;
      default: k[i] = n - i; break;
    }
  }
  return k;
}

/// Routing records keyed by `keys`: the first word after the key is a
/// unique shuffled source, the rest random payload.
template <class Rec>
std::vector<Rec> records(const std::vector<std::uint64_t>& keys,
                         Xoshiro256& g) {
  std::vector<Rec> r(keys.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i].key = keys[i];
    r[i].val[0] = i;
    for (std::size_t k = 1; k < std::size(r[i].val); ++k) r[i].val[k] = g();
  }
  for (std::size_t i = r.size(); i > 1; --i) {
    std::swap(r[i - 1].val[0], r[g.below(i)].val[0]);
  }
  return r;
}

/// Sizes whose n * W sit at L - 1, L, L + 1 and 3L + 1 words for
/// L = kNativeLeafWords, rounded to the side of L the word count is on.
template <class T>
std::vector<std::size_t> leaf_edge_sizes() {
  constexpr std::size_t W = (sizeof(T) + 7) / 8;
  constexpr std::size_t L = sched::kNativeLeafWords;
  std::vector<std::size_t> out;
  for (const std::size_t w : {L - 1, L, L + 1, 3 * L + 1}) {
    const std::size_t n = w <= L ? w / W : (w + W - 1) / W;
    if (out.empty() || out.back() != n) out.push_back(n);
  }
  return out;
}

template <class T>
void expect_sort_matches_sim(const std::vector<T>& in) {
  auto sort = [](auto& ex, auto ref) { algo::spms_sort(ex, ref); };
  const std::uint64_t words = in.size() * ((sizeof(T) + 7) / 8);
  expect_native_runs(in, sim_run(in, 4 * words, sort), sort, kBitsEqual);
}

TEST(NativeLeaf, SortMatchesSim) {
  Xoshiro256 g(82);
  for (int p = 0; p < 5; ++p) {
    SCOPED_TRACE("key pattern " + std::to_string(p));
    for (const std::size_t n : leaf_edge_sizes<std::uint64_t>()) {
      SCOPED_TRACE("u64 n=" + std::to_string(n));
      expect_sort_matches_sim(key_pattern(p, n, g));
    }
    for (const std::size_t n : leaf_edge_sizes<algo::detail::RouteRec<1>>()) {
      SCOPED_TRACE("RouteRec<1> n=" + std::to_string(n));
      expect_sort_matches_sim(
          records<algo::detail::RouteRec<1>>(key_pattern(p, n, g), g));
    }
    for (const std::size_t n : leaf_edge_sizes<algo::detail::RouteRec<3>>()) {
      SCOPED_TRACE("RouteRec<3> n=" + std::to_string(n));
      expect_sort_matches_sim(
          records<algo::detail::RouteRec<3>>(key_pattern(p, n, g), g));
    }
  }
}

/// The u64 radix leaf against std::sort, called directly and through a
/// native spms_sort (one leaf), on both sides of kSortBase = 64 (below it
/// the leaf is std::sort) and at the leaf's largest size, over keys that
/// vary in every digit, in one digit, or in none.
TEST(NativeLeaf, SortLeafRadixEdgeCases) {
  Xoshiro256 g(90);
  auto pattern = [&](int p, std::size_t n) {
    std::vector<std::uint64_t> k(n);
    const std::uint64_t base = g(), a = g(), b = g();
    // Keys that differ only in byte `d` of `base`.
    auto one_byte = [&](int d) {
      const std::uint64_t mask = std::uint64_t{0xff} << (8 * d);
      for (auto& x : k) x = (base & ~mask) | (g() & mask);
    };
    switch (p) {
      case 0: k.assign(n, base); break;
      case 1:
      case 2:
        for (auto& x : k) x = g();
        std::sort(k.begin(), k.end());
        if (p == 2) std::reverse(k.begin(), k.end());
        break;
      case 3: for (auto& x : k) x = g() & 1 ? a : b; break;
      case 4: one_byte(7); break;
      case 5: one_byte(0); break;
      case 6: one_byte(3); break;
      case 7: for (auto& x : k) x = g() & 1 ? ~std::uint64_t{0} : 0; break;
      default: for (auto& x : k) x = g(); break;
    }
    return k;
  };
  const char* names[] = {"all equal", "sorted", "reversed",
                         "two values", "top byte only", "low byte only",
                         "byte 3 only", "0 and ~0", "random"};
  for (const std::size_t n : {0, 1, 2, 63, 64, 65, 725, 2047, 2048}) {
    for (int p = 0; p < 9; ++p) {
      SCOPED_TRACE("n=" + std::to_string(n) + ", " + names[p]);
      const auto in = pattern(p, n);
      auto want = in;
      std::sort(want.begin(), want.end());
      auto direct = in;
      algo::detail::radix_sort_leaf(direct.data(), n);
      EXPECT_TRUE(BitsEqual(want, direct));
      sched::NativeExecutor ex(1);
      EXPECT_TRUE(BitsEqual(want, run_on(ex, in, [&](auto ref) {
                              algo::spms_sort(ex, ref);
                            })));
    }
  }
}

/// Above the leaf: sorted, all-equal and reversed keys at n = 2^16, and 64
/// distinct values at 2^18 (so that each value's bucket, about 4096 u64
/// keys, exceeds the leaf and is in order), for u64 keys and records,
/// against the native kGeneric recursion, which takes no leaf, no in-order
/// shortcut and the model path's sample positions.
TEST(NativeLeaf, SortPatternsMatchGeneric) {
  auto sort = [](auto& ex, auto ref) { algo::spms_sort(ex, ref); };
  auto generic = [&](const auto& in) {
    simd::ScopedMode sm(simd::Mode::kGeneric);
    sched::NativeExecutor ex(1);
    return run_on(ex, in, [&](auto ref) { sort(ex, ref); });
  };
  Xoshiro256 g(87);
  for (const int p : {1, 2, 3, 4}) {
    SCOPED_TRACE("key pattern " + std::to_string(p));
    const auto keys = key_pattern(p, p == 1 ? 1 << 18 : 1 << 16, g);
    expect_native_runs(keys, generic(keys), sort, kBitsEqual);
    const auto recs = records<algo::detail::RouteRec<1>>(keys, g);
    expect_native_runs(recs, generic(recs), sort, kBitsEqual);
  }
}

/// Native mo_matmul and Floyd-Warshall igep at sides 16 to 64, whose
/// function-D tiles stop at kNativeTileSide = 16, against the simulator's
/// recursion to base_cutoff 8, on non-integer values so that a changed
/// summation or min order would show.
TEST(NativeLeaf, TileLeafMatchesSim) {
  Xoshiro256 g(89);
  for (const std::uint64_t n : {16u, 32u, 64u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto matmul = [n](auto& ex, auto ref) {
      using Mat = sched::MatView<decltype(ref)>;
      algo::mo_matmul(ex, Mat::full(ref.slice(0, n * n), n, n),
                      Mat::full(ref.slice(n * n, n * n), n, n),
                      Mat::full(ref.slice(2 * n * n, n * n), n, n));
    };
    auto fw = [n](auto& ex, auto ref) {
      algo::igep<algo::FloydWarshallInstance>(
          ex, sched::MatView<decltype(ref)>::full(ref, n, n));
    };
    std::vector<double> cab(3 * n * n);
    for (auto& v : cab) v = rnd(g);
    {
      SCOPED_TRACE("matmul");
      expect_native_runs(cab, sim_run(cab, 4 * n * n, matmul), matmul,
                         kBitsEqual);
    }
    std::vector<double> x(n * n);
    for (auto& v : x) v = std::abs(rnd(g)) + 0.01;
    SCOPED_TRACE("Floyd-Warshall");
    expect_native_runs(x, sim_run(x, n * n, fw), fw, kBitsEqual);
  }
}

/// Host matrix with rows of the given lengths: row i holds lens[i] columns,
/// one in each of lens[i] equal slices of [0, n), with values in [-1, 1).
algo::SparseMatrix rows_matrix(const std::vector<std::uint64_t>& lens,
                               Xoshiro256& g) {
  algo::SparseMatrix a;
  a.n = lens.size();
  a.a0.assign(1, 0);
  for (const std::uint64_t len : lens) {
    for (std::uint64_t t = 0; t < len; ++t) {
      const std::uint64_t lo = t * a.n / len, hi = (t + 1) * a.n / len;
      a.av.push_back({lo + g.below(hi - lo), rnd(g)});
    }
    a.a0.push_back(a.av.size());
  }
  return a;
}

/// The single-row leaf of the recursion, row by row: the serial loop below
/// two lane strides of nonzeros, the strided dot kernel from there on.
std::vector<double> row_leaf_reference(const algo::SparseMatrix& a,
                                       const std::vector<double>& x) {
  std::vector<double> y = algo::spmdv_reference(a, x);
  for (std::uint64_t i = 0; i < a.n; ++i) {
    const std::uint64_t lo = a.a0[i], len = a.a0[i + 1] - lo;
    if (len >= 2 * simd::kMaxLaneWords) {
      y[i] = simd::dot_strided_f64(&a.av[lo].col, &a.av[lo].val, 2, x.data(),
                                   len);
    }
  }
  return y;
}

TEST(NativeLeaf, SpmdvBlockLeafMatchesRows) {
  constexpr std::uint64_t L = sched::kNativeLeafWords;
  constexpr std::uint64_t kLong = 2 * simd::kMaxLaneWords;
  Xoshiro256 g(88);
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>> cases = {
      {"n=1, empty row", {0}},
      {"n=1", {1}},
  };
  std::vector<std::uint64_t> lens(40);
  for (std::uint64_t i = 0; i < lens.size(); ++i) lens[i] = i % 3 ? i % 5 : 0;
  cases.emplace_back("empty rows", lens);
  // One row of more than L/2 nonzeros: a range of one row above the leaf.
  lens.assign(1500, 0);
  for (std::uint64_t i = 0; i < lens.size(); ++i) lens[i] = i % 7;
  lens[700] = L / 2 + 200;
  cases.emplace_back("row wider than the leaf", lens);
  // Whole matrices of 2 nnz + 2 rows = L - 2, L, L + 2 words (always even):
  // 300 short rows, or 100 rows alternating between 3 and 15-16 nonzeros.
  for (const std::uint64_t words : {L - 2, L, L + 2}) {
    for (const std::uint64_t rows : {300u, 100u}) {
      const std::uint64_t step = rows == 300 ? 1 : 2;
      std::uint64_t nnz = words / 2 - rows;
      lens.assign(rows, 0);
      for (std::uint64_t i = 1; step == 2 && i < rows; i += 2) {
        lens[i] = 3;
        nnz -= 3;
      }
      for (std::uint64_t i = 0; nnz > 0; i = (i + step) % rows, --nnz) {
        ++lens[i];
      }
      cases.emplace_back(std::to_string(words) + " words, " +
                             std::to_string(rows) + " rows",
                         lens);
    }
  }
  for (const auto& [name, row_lens] : cases) {
    SCOPED_TRACE(name);
    const algo::SparseMatrix a = rows_matrix(row_lens, g);
    ASSERT_TRUE(a.valid());
    std::vector<double> x(a.n);
    for (auto& v : x) v = rnd(g);
    const bool all_short =
        std::all_of(row_lens.begin(), row_lens.end(),
                    [&](std::uint64_t len) { return len < kLong; });
    const std::vector<double> serial = algo::spmdv_reference(a, x);
    const std::vector<double> want = row_leaf_reference(a, x);
    if (all_short) {
      EXPECT_TRUE(BitsEqual(want, serial));
    }
    for (const simd::Mode m :
         {simd::Mode::kAuto, simd::Mode::kScalar, simd::Mode::kGeneric}) {
      simd::ScopedMode sm(m);
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)) + ", " +
                     std::to_string(threads) + " workers");
        // A small grain, so that 4 workers fork every range above the leaf.
        sched::NativeExecutor ex(threads, /*sequential_grain_words=*/64);
        auto av = ex.make_buf<algo::SpmEntry>(a.nnz());
        auto a0 = ex.make_buf<std::uint64_t>(a.n + 1);
        auto xv = ex.make_buf<double>(a.n);
        auto yv = ex.make_buf<double>(a.n);
        av.raw() = a.av;
        a0.raw() = a.a0;
        xv.raw() = x;
        algo::mo_spmdv(ex, av.ref(), a0.ref(), xv.ref(), yv.ref());
        if (m == simd::Mode::kGeneric) {
          // The serial loop in every row, within 1e-12 of the kernel rows.
          EXPECT_TRUE(BitsEqual(serial, yv.raw()));
          for (std::uint64_t i = 0; i < a.n; ++i) {
            EXPECT_NEAR(want[i], yv.raw()[i], 1e-12) << i;
          }
        } else {
          EXPECT_TRUE(BitsEqual(want, yv.raw()));
        }
      }
    }
  }
}

/// Inputs whose scan depends on the association tree: random exponents
/// over +-2^40, with signed zeros and subnormals sprinkled in; `inf` adds
/// one infinity of either sign in the last quarter.
std::vector<double> scan_doubles(std::size_t n, bool inf, Xoshiro256& g) {
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (g.below(8)) {
      case 0: v[i] = g.below(2) ? 0.0 : -0.0; break;
      case 1: v[i] = kSub * static_cast<double>(g.below(5)) * rnd(g); break;
      default:
        v[i] = std::ldexp(rnd(g), static_cast<int>(g.below(81)) - 40);
    }
  }
  if (inf && n > 0) {
    v[n - 1 - n / 8] = (g.below(2) ? 1.0 : -1.0) *
                       std::numeric_limits<double>::infinity();
  }
  return v;
}

/// Signed keys whose running sums stay far from overflow at any test size
/// (the simulator's reference is a signed addition).
std::vector<std::int64_t> scan_int64s(std::size_t n, Xoshiro256& g) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(g() >> 24) - (std::int64_t{1} << 39);
  }
  return v;
}

/// Native scans on both entry points against the full recursion: the
/// simulator up to 2^14 elements, native kGeneric above.
template <class T, class Eq>
void expect_scan_matches(const std::vector<T>& in, Eq&& eq) {
  auto prefix = [](auto& ex, auto ref) { algo::mo_prefix_sum(ex, ref); };
  auto inclusive = [](auto& ex, auto ref) {
    // The smallest scratch the contract allows.
    auto scratch =
        ex.template make_buf<T>(algo::scan_scratch_words(ref.size()));
    algo::mo_scan_inclusive(ex, ref, scratch.ref(), algo::AddOp<T>{});
  };
  std::vector<T> want;
  if (in.size() <= (1u << 14)) {
    want = sim_run(in, 2 * in.size(), prefix);
  } else {
    simd::ScopedMode sm(simd::Mode::kGeneric);
    sched::NativeExecutor ex(1);
    want = run_on(ex, in, [&](auto ref) { algo::mo_prefix_sum(ex, ref); });
  }
  {
    SCOPED_TRACE("mo_prefix_sum");
    expect_native_runs(in, want, prefix, eq);
  }
  SCOPED_TRACE("mo_scan_inclusive, minimum scratch");
  expect_native_runs(in, want, inclusive, eq);
}

TEST(NativeLeaf, ScanMatchesSim) {
  constexpr std::size_t L = sched::kNativeLeafWords;
  Xoshiro256 g(83);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, L - 1, L, L + 1, 5 * L + 3,
        L * L - 1, L * L, L * L + L + 1}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const bool inf : {false, true}) {
      SCOPED_TRACE(inf ? "double with an infinity" : "double");
      expect_scan_matches(scan_doubles(n, inf, g), kSameValues);
    }
    std::vector<std::uint64_t> u(n);
    for (auto& x : u) x = g();  // wraps
    {
      SCOPED_TRACE("u64");
      expect_scan_matches(u, kBitsEqual);
    }
    SCOPED_TRACE("int64");
    expect_scan_matches(scan_int64s(n, g), kBitsEqual);
  }
}

/// MO-MT on both entry points, and in place on a view whose leading
/// dimension is twice its side (the padding columns must stay untouched),
/// against the simulator.
template <class T>
void expect_transposes_match_sim(std::uint64_t n, Xoshiro256& g) {
  std::vector<T> in(2 * n * n);
  for (auto& x : in) {
    if constexpr (std::is_same_v<T, double>) {
      x = rnd(g);
    } else {
      x = T(rnd(g), rnd(g));
    }
  }
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  auto out_of_place = [n](auto& ex, auto ref) {
    algo::mo_transpose(ex, ref.slice(0, n * n), ref.slice(n * n, n * n), n);
  };
  auto full = [n](auto& ex, auto ref) {
    algo::mo_transpose_inplace(
        ex, sched::MatView<decltype(ref)>::full(ref.slice(0, n * n), n, n));
  };
  auto padded = [n](auto& ex, auto ref) {
    algo::mo_transpose_inplace(
        ex, sched::MatView<decltype(ref)>(ref, 2 * n, 0, 0, n, n));
  };
  const std::uint64_t space = 4 * n * n * W;
  {
    SCOPED_TRACE("mo_transpose");
    expect_native_runs(in, sim_run(in, space, out_of_place), out_of_place,
                       kBitsEqual);
  }
  {
    SCOPED_TRACE("mo_transpose_inplace");
    expect_native_runs(in, sim_run(in, space, full), full, kBitsEqual);
  }
  SCOPED_TRACE("mo_transpose_inplace, ld = 2n");
  expect_native_runs(in, sim_run(in, space, padded), padded, kBitsEqual);
}

TEST(NativeLeaf, TransposeMatchesSim) {
  Xoshiro256 g(84);
  for (std::uint64_t n = 1; n <= 512; n *= 2) {
    SCOPED_TRACE("side " + std::to_string(n));
    {
      SCOPED_TRACE("double");
      expect_transposes_match_sim<double>(n, g);
    }
    SCOPED_TRACE("complex");
    expect_transposes_match_sim<algo::cplx>(n, g);
  }
}

/// Pull targets over n nodes: a random list's successors (one kNil), a
/// non-injective draw with every fifth target kNil (CC's `parent` repeats
/// targets), the identity, and all kNil.
std::vector<std::uint64_t> pull_targets(int p, std::uint64_t n,
                                        Xoshiro256& g) {
  std::vector<std::uint64_t> t(n, algo::kNil);
  if (p == 0) {
    std::vector<std::uint64_t> pred;
    algo::link_list(algo::random_list_order(n, g), t, pred);
  } else if (p == 1) {
    for (std::uint64_t v = 0; v < n; ++v) {
      if (v % 5 != 0) t[v] = g.below(n);
    }
  } else if (p == 2) {
    std::iota(t.begin(), t.end(), 0);
  }
  return t;
}

/// mo_pull and mo_pull3 on one buffer [target | fields | outputs]: the
/// native gather (kAuto/kScalar x 1/4 workers) against the simulator's
/// routed pulls, outputs and untouched inputs alike.
TEST(NativeLeaf, PullMatchesSim) {
  using algo::kNil;
  auto pull = [](auto& ex, auto ref) {
    const std::uint64_t n = ref.size() / 3;
    algo::mo_pull(ex, ref.slice(0, n), ref.slice(n, n), ref.slice(2 * n, n),
                  777);
  };
  auto pull3 = [](auto& ex, auto ref) {
    const std::uint64_t n = ref.size() / 7;
    auto part = [&](std::uint64_t k) { return ref.slice(k * n, n); };
    algo::mo_pull3(ex, part(0), part(1), part(2), part(3), part(4), part(5),
                   part(6), 1, kNil, 3);
  };
  // lr_rec's shape: fields 1 and 2 are the target, outputs 1 and 2 the
  // same array.
  auto pull3_lr = [](auto& ex, auto ref) {
    const std::uint64_t n = ref.size() / 4;
    auto part = [&](std::uint64_t k) { return ref.slice(k * n, n); };
    algo::mo_pull3(ex, part(0), part(1), part(0), part(0), part(2), part(3),
                   part(3), 0, kNil, kNil);
  };
  Xoshiro256 g(85);
  for (const std::uint64_t n : {0, 1, 2, 3, 64, 65, 2047, 2048, 2049, 10000}) {
    for (int p = 0; p < 4; ++p) {
      SCOPED_TRACE("n=" + std::to_string(n) + " targets " +
                   std::to_string(p));
      const auto target = pull_targets(p, n, g);
      auto layout = [&](std::uint64_t fields, std::uint64_t outs) {
        std::vector<std::uint64_t> in(target);
        for (std::uint64_t i = 0; i < fields * n; ++i) in.push_back(g());
        in.resize((1 + fields + outs) * n, 0xdeadbeefull);
        return in;
      };
      const auto in1 = layout(1, 1), in3 = layout(3, 3), in_lr = layout(1, 2);
      {
        SCOPED_TRACE("mo_pull");
        expect_native_runs(in1, sim_run(in1, 8 * n, pull), pull, kBitsEqual);
      }
      {
        SCOPED_TRACE("mo_pull3");
        expect_native_runs(in3, sim_run(in3, 12 * n, pull3), pull3,
                           kBitsEqual);
      }
      SCOPED_TRACE("mo_pull3, lr_rec's call shape");
      expect_native_runs(in_lr, sim_run(in_lr, 12 * n, pull3_lr), pull3_lr,
                         kBitsEqual);
    }
  }
}

/// Every native caller of the pulls at n = 2^16, where the simulator is
/// too slow: the gather (kAuto) against the sort-routed pulls (kGeneric),
/// each on 1 and 4 workers.
TEST(NativeLeaf, PullCallersMatchGeneric) {
  constexpr std::uint64_t n = 1 << 16;
  Xoshiro256 g(86);
  const auto order = algo::random_list_order(n, g);
  std::vector<std::uint64_t> succ, pred, len(n);
  algo::link_list(order, succ, pred);
  for (auto& w : len) w = g();  // wraps: every bit of the sums matters
  algo::EdgeList tree{n, {}}, graph{n, {}};
  for (std::uint64_t v = 1; v < n; ++v) {
    tree.edges.emplace_back(static_cast<std::uint32_t>(g.below(v)),
                            static_cast<std::uint32_t>(v));
  }
  for (std::uint64_t e = 0; e < n / 2; ++e) {
    graph.edges.emplace_back(static_cast<std::uint32_t>(g.below(n)),
                             static_cast<std::uint32_t>(g.below(n)));
  }
  using Out = std::vector<std::vector<std::uint64_t>>;
  auto run = [&](simd::Mode m, unsigned threads) {
    simd::ScopedMode sm(m);
    sched::NativeExecutor ex(threads);
    auto s = ex.make_buf<std::uint64_t>(n), p = ex.make_buf<std::uint64_t>(n),
         l = ex.make_buf<std::uint64_t>(n), d = ex.make_buf<std::uint64_t>(n),
         dw = ex.make_buf<std::uint64_t>(n);
    s.raw() = succ;
    p.raw() = pred;
    l.raw() = len;
    algo::mo_list_rank(ex, s.ref(), p.ref(), d.ref());
    algo::mo_list_rank_weighted(ex, s.ref(), p.ref(), l.ref(), dw.ref());
    const auto tf = algo::mo_tree_functions(ex, tree, 5);
    std::vector<std::uint64_t> depth(tf.depth.begin(), tf.depth.end());
    return Out{d.raw(), dw.raw(), tf.parent, depth, tf.subtree_size,
               tf.preorder, algo::mo_connected_components(ex, graph)};
  };
  const Out want = run(simd::Mode::kGeneric, 1);
  for (std::uint64_t t = 0; t < n; ++t) {
    ASSERT_EQ(want[0][order[t]], n - 1 - t) << "rank of list position " << t;
  }
  for (const simd::Mode m : {simd::Mode::kAuto, simd::Mode::kGeneric}) {
    for (const unsigned threads : {1u, 4u}) {
      if (m == simd::Mode::kGeneric && threads == 1) continue;
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)) + ", " +
                   std::to_string(threads) + " workers");
      const Out got = run(m, threads);
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_TRUE(BitsEqual(want[k], got[k])) << "output " << k;
      }
    }
  }
}

}  // namespace
}  // namespace obliv
