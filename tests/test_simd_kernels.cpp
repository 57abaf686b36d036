// Kernel parity fuzz for the SIMD layer (util/simd.hpp): every vec::
// kernel is bitwise-identical to its scalar:: fallback over randomized
// sizes, alignments and odd tails (on builds/hosts without vector support
// vec:: forwards to scalar:: and the checks pass trivially).  scalar::
// itself is checked against independent naive references written here.
// The tile kernels are also fed NaN and infinities, so their checks let a
// NaN match any NaN (SameValues).  test_simd_golden.cpp checks the native
// algorithms across kernel modes; test_native_leaf.cpp checks the native
// leaves against the simulator.
#include "util/simd.hpp"

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

#include "algo/spmdv.hpp"
#include "simd_test_util.hpp"
#include "util/rng.hpp"

namespace obliv {
namespace {

using namespace simd_test;

// Sizes covering empty, sub-lane, exact-lane and odd-tail shapes; offsets
// exercise unaligned starts (kernels must not assume 32-byte alignment).
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 37, 64, 131};
const std::size_t kOffsets[] = {0, 1, 3};

std::vector<double> rand_vec(Xoshiro256& g, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = rnd(g);
  return v;
}

// ---------------------------------------------------------------------------
// Kernel parity fuzz
// ---------------------------------------------------------------------------

TEST(SimdKernels, PairSumParity) {
  Xoshiro256 g(1);
  for (std::size_t n : kSizes) {
    for (std::size_t off : kOffsets) {
      auto src = rand_vec(g, 2 * n + off);
      std::vector<double> d1(n + off, 0.0), d2 = d1;
      simd::scalar::pair_sum_f64(src.data() + off, d1.data() + off, n);
      simd::vec::pair_sum_f64(src.data() + off, d2.data() + off, n);
      EXPECT_TRUE(BitsEqual(d1, d2)) << "n=" << n << " off=" << off;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(d1[off + i], src[off + 2 * i] + src[off + 2 * i + 1]);
      }
      // u64 flavor over the same shapes.
      std::vector<std::uint64_t> us(2 * n + off);
      for (auto& x : us) x = g();
      std::vector<std::uint64_t> u1(n + off, 0), u2 = u1;
      simd::scalar::pair_sum_u64(us.data() + off, u1.data() + off, n);
      simd::vec::pair_sum_u64(us.data() + off, u2.data() + off, n);
      EXPECT_TRUE(BitsEqual(u1, u2)) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, ScanExpandParity) {
  Xoshiro256 g(2);
  for (std::size_t half : kSizes) {
    for (std::size_t i_lo : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      if (i_lo > half) continue;
      auto t = rand_vec(g, half);
      auto v0 = rand_vec(g, 2 * half);
      auto v1 = v0, v2 = v0;
      simd::scalar::scan_expand_f64(t.data(), v1.data(), i_lo, half);
      simd::vec::scan_expand_f64(t.data(), v2.data(), i_lo, half);
      EXPECT_TRUE(BitsEqual(v1, v2)) << half << "/" << i_lo;
      for (std::size_t i = i_lo; i < half; ++i) {
        EXPECT_EQ(v1[2 * i], t[i - 1] + v0[2 * i]);
        EXPECT_EQ(v1[2 * i + 1], t[i]);
      }
    }
  }
}

TEST(SimdKernels, ButterflyParityAndComplexIdentity) {
  Xoshiro256 g(3);
  for (std::size_t n : kSizes) {
    auto ra0 = rand_vec(g, n), ia0 = rand_vec(g, n);
    auto rb0 = rand_vec(g, n), ib0 = rand_vec(g, n);
    std::vector<double> wre(n), wim(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = rnd(g) * std::numbers::pi;
      wre[j] = std::cos(ang);
      wim[j] = std::sin(ang);
    }
    auto ra1 = ra0, ia1 = ia0, rb1 = rb0, ib1 = ib0;
    auto ra2 = ra0, ia2 = ia0, rb2 = rb0, ib2 = ib0;
    simd::scalar::butterfly_f64(ra1.data(), ia1.data(), rb1.data(),
                                ib1.data(), wre.data(), wim.data(), n);
    simd::vec::butterfly_f64(ra2.data(), ia2.data(), rb2.data(), ib2.data(),
                             wre.data(), wim.data(), n);
    EXPECT_TRUE(BitsEqual(ra1, ra2));
    EXPECT_TRUE(BitsEqual(ia1, ia2));
    EXPECT_TRUE(BitsEqual(rb1, rb2));
    EXPECT_TRUE(BitsEqual(ib1, ib2));
    // Identity with the std::complex formulation the generic FFT uses.
    for (std::size_t j = 0; j < n; ++j) {
      const std::complex<double> a{ra0[j], ia0[j]};
      const std::complex<double> b =
          std::complex<double>{rb0[j], ib0[j]} *
          std::complex<double>{wre[j], wim[j]};
      const std::complex<double> s = a + b, d = a - b;
      EXPECT_EQ(ra1[j], s.real());
      EXPECT_EQ(ia1[j], s.imag());
      EXPECT_EQ(rb1[j], d.real());
      EXPECT_EQ(ib1[j], d.imag());
    }
  }
}

TEST(SimdKernels, DftBaseParityAndComplexIdentity) {
  Xoshiro256 g(4);
  for (unsigned m : {1u, 2u, 4u, 8u}) {
    for (int rep = 0; rep < 8; ++rep) {
      auto re = rand_vec(g, m), im = rand_vec(g, m);
      std::vector<double> r1(m), i1(m), r2(m), i2(m);
      simd::scalar::dft_pow2_f64(re.data(), im.data(), r1.data(), i1.data(),
                                 m);
      simd::vec::dft_pow2_f64(re.data(), im.data(), r2.data(), i2.data(), m);
      EXPECT_TRUE(BitsEqual(r1, r2)) << "m=" << m;
      EXPECT_TRUE(BitsEqual(i1, i2)) << "m=" << m;
      // Identity with dft_base's generic complex accumulation.
      for (unsigned f = 0; f < m; ++f) {
        std::complex<double> acc{0.0, 0.0};
        for (unsigned t = 0; t < m; ++t) {
          const double ang = -2.0 * std::numbers::pi *
                             static_cast<double>((f * t) % m) /
                             static_cast<double>(m);
          acc += std::complex<double>{re[t], im[t]} * std::polar(1.0, ang);
        }
        EXPECT_EQ(r1[f], acc.real()) << "m=" << m << " f=" << f;
        EXPECT_EQ(i1[f], acc.imag()) << "m=" << m << " f=" << f;
      }
    }
  }
}

TEST(SimdKernels, RowUpdateParity) {
  Xoshiro256 g(5);
  for (std::size_t n : kSizes) {
    for (std::size_t off : kOffsets) {
      auto y0 = rand_vec(g, n + off);
      auto v = rand_vec(g, n + off);
      const double u = rnd(g), w = rnd(g) + 2.0;  // w away from 0
      // fw_min
      auto y1 = y0, y2 = y0;
      simd::scalar::fw_min_f64(y1.data() + off, v.data() + off, u, n);
      simd::vec::fw_min_f64(y2.data() + off, v.data() + off, u, n);
      EXPECT_TRUE(BitsEqual(y1, y2));
      for (std::size_t j = 0; j < n; ++j) {
        const double cand = u + v[off + j];
        EXPECT_EQ(y1[off + j], cand < y0[off + j] ? cand : y0[off + j]);
      }
      // gauss
      y1 = y0, y2 = y0;
      simd::scalar::gauss_update_f64(y1.data() + off, v.data() + off, u / w,
                                     n);
      simd::vec::gauss_update_f64(y2.data() + off, v.data() + off, u / w, n);
      EXPECT_TRUE(BitsEqual(y1, y2));
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(y1[off + j], y0[off + j] - (u / w) * v[off + j]);
      }
      // axpy
      y1 = y0, y2 = y0;
      simd::scalar::axpy_f64(y1.data() + off, v.data() + off, u, n);
      simd::vec::axpy_f64(y2.data() + off, v.data() + off, u, n);
      EXPECT_TRUE(BitsEqual(y1, y2));
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(y1[off + j], y0[off + j] + u * v[off + j]);
      }
      // in-place aliasing (i == k rows): y and v the same pointer.
      y1 = y0, y2 = y0;
      simd::scalar::fw_min_f64(y1.data() + off, y1.data() + off, u, n);
      simd::vec::fw_min_f64(y2.data() + off, y2.data() + off, u, n);
      EXPECT_TRUE(BitsEqual(y1, y2));
    }
  }
}

// Tile operands at leading dimension ld, filled with finite values plus a
// sprinkling of NaN, +-inf, -0.0 and subnormals.
std::vector<double> rand_tile(Xoshiro256& g, std::size_t rows, std::size_t ld) {
  static constexpr double kSpecial[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3.0 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0};
  std::vector<double> t(rows * ld);
  for (auto& x : t) {
    x = g() % 16 == 0 ? kSpecial[g() % std::size(kSpecial)] : rnd(g);
  }
  return t;
}

TEST(SimdKernels, TileParity) {
  // Every m x n x k in 1..13 (so each of the 4-row and 4/8-column edge
  // paths runs), at leading dimensions from tight to 520 words, including
  // 512: the 4 KiB stride the n = 512 leaves use.  Bitwise on every
  // non-NaN result (SameValues), including -0.0, infinities and subnormals.
  Xoshiro256 g(8);
  const std::size_t kLds[] = {8, 13, 16, 37, 512, 520};
  for (std::size_t m = 1; m <= 13; ++m) {
    for (std::size_t n = 1; n <= 13; ++n) {
      for (std::size_t k = 1; k <= 13; ++k) {
        std::vector<std::size_t> lds;  // every ld that fits the tile
        for (std::size_t ld : kLds) {
          if (ld >= std::max(n, k)) lds.push_back(ld);
        }
        const std::size_t ld = lds[(7 * m + 3 * n + k) % lds.size()];
        const auto y0 = rand_tile(g, m, ld);
        const auto u = rand_tile(g, m, ld);
        const auto v = rand_tile(g, k, ld);
        // Per-element reference: ascending l, the row loop's operations.
        auto ref_mm = y0, ref_mp = y0;
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double& a = ref_mm[i * ld + j];
            double& b = ref_mp[i * ld + j];
            for (std::size_t l = 0; l < k; ++l) {
              a = a + u[i * ld + l] * v[l * ld + j];
              const double cand = u[i * ld + l] + v[l * ld + j];
              b = cand < b ? cand : b;
            }
          }
        }
        auto y1 = y0, y2 = y0;
        simd::scalar::tile_matmul_f64(y1.data(), ld, u.data(), ld, v.data(),
                                      ld, m, n, k);
        simd::vec::tile_matmul_f64(y2.data(), ld, u.data(), ld, v.data(), ld,
                                   m, n, k);
        EXPECT_TRUE(SameValues(y1, ref_mm)) << m << "x" << n << "x" << k;
        EXPECT_TRUE(SameValues(y1, y2)) << m << "x" << n << "x" << k;
        y1 = y0, y2 = y0;
        simd::scalar::tile_minplus_f64(y1.data(), ld, u.data(), ld, v.data(),
                                       ld, m, n, k);
        simd::vec::tile_minplus_f64(y2.data(), ld, u.data(), ld, v.data(),
                                    ld, m, n, k);
        EXPECT_TRUE(SameValues(y1, ref_mp)) << m << "x" << n << "x" << k;
        EXPECT_TRUE(SameValues(y1, y2)) << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(SimdKernels, TileKernelsNeedDisjointOperands) {
  // Unlike the row kernels (RowUpdateParity's y == v case), the tile
  // kernels are only legal when Y overlaps neither U nor V: the register
  // block reads U long before its stores to Y land.  With Y == U (an
  // I-GEP A/B tile) the vector path departs from the row loop, which is
  // why gep_rec routes only function-D tiles here.
  if (!simd::vec::available()) GTEST_SKIP() << "no vector path in this build";
  Xoshiro256 g(9);
  const std::size_t n = 8;
  auto y0 = rand_vec(g, n * n);
  auto v = rand_vec(g, n * n);
  for (auto& x : v) x = -1.0 - std::abs(x);  // every min-plus step updates
  auto y1 = y0, y2 = y0;
  simd::scalar::tile_matmul_f64(y1.data(), n, y1.data(), n, v.data(), n, n, n,
                                n);
  simd::vec::tile_matmul_f64(y2.data(), n, y2.data(), n, v.data(), n, n, n, n);
  EXPECT_FALSE(BitsEqual(y1, y2)) << "matmul with Y == U";
  y1 = y0, y2 = y0;
  simd::scalar::tile_minplus_f64(y1.data(), n, y1.data(), n, v.data(), n, n,
                                 n, n);
  simd::vec::tile_minplus_f64(y2.data(), n, y2.data(), n, v.data(), n, n, n,
                              n);
  EXPECT_FALSE(BitsEqual(y1, y2)) << "min-plus with Y == U";
}

TEST(SimdKernels, DotStridedParity) {
  // stride_words == 2 is the SpmEntry AoS contract: cols and vals are the
  // SAME interleaved stream (vals == (const double*)cols + 1), which the
  // vector path exploits with a deinterleaving load.
  Xoshiro256 g(6);
  for (std::size_t n : kSizes) {
    const std::size_t xn = 64;
    auto x = rand_vec(g, xn);
    std::vector<algo::SpmEntry> e(std::max<std::size_t>(n, 1));
    for (std::size_t i = 0; i < n; ++i) e[i] = {g() % xn, rnd(g)};
    const double d1 =
        simd::scalar::dot_strided_f64(&e[0].col, &e[0].val, 2, x.data(), n);
    const double d2 =
        simd::vec::dot_strided_f64(&e[0].col, &e[0].val, 2, x.data(), n);
    EXPECT_EQ(std::memcmp(&d1, &d2, sizeof(double)), 0) << "n=" << n;
    // Reference with the documented fixed accumulator order.
    double acc[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < (n / 4) * 4; ++i) {
      acc[i % 4] += e[i].val * x[e[i].col];
    }
    double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (std::size_t i = (n / 4) * 4; i < n; ++i) {
      s += e[i].val * x[e[i].col];
    }
    EXPECT_EQ(d1, s);
    // Generic-stride branch (separate arrays are allowed there).
    std::vector<std::uint64_t> cols(3 * n + 1, 0);
    std::vector<double> vals(3 * n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      cols[3 * i] = g() % xn;
      vals[3 * i] = rnd(g);
    }
    const double t1 = simd::scalar::dot_strided_f64(cols.data(), vals.data(),
                                                    3, x.data(), n);
    const double t2 =
        simd::vec::dot_strided_f64(cols.data(), vals.data(), 3, x.data(), n);
    EXPECT_EQ(std::memcmp(&t1, &t2, sizeof(double)), 0) << "n=" << n;
  }
}

TEST(SimdKernels, GatherParity) {
  Xoshiro256 g(7);
  for (std::size_t n : kSizes) {
    const std::size_t base_n = std::max<std::size_t>(n, 8);
    auto base = rand_vec(g, 2 * base_n);
    std::vector<std::uint64_t> idx(n);
    for (auto& i : idx) i = g() % base_n;
    std::vector<double> d1(n), d2(n);
    simd::scalar::gather_f64(base.data(), idx.data(), d1.data(), n);
    simd::vec::gather_f64(base.data(), idx.data(), d2.data(), n);
    EXPECT_TRUE(BitsEqual(d1, d2));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(d1[i], base[idx[i]]);
    // Two-word-element flavor.
    std::vector<double> e1(2 * n), e2(2 * n);
    simd::scalar::gather_2f64(base.data(), idx.data(), e1.data(), n);
    simd::vec::gather_2f64(base.data(), idx.data(), e2.data(), n);
    EXPECT_TRUE(BitsEqual(e1, e2));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(e1[2 * i], base[2 * idx[i]]);
      EXPECT_EQ(e1[2 * i + 1], base[2 * idx[i] + 1]);
    }
  }
}

TEST(SimdKernels, ModeSwitchesDispatch) {
  {
    simd::ScopedMode m(simd::Mode::kScalar);
    EXPECT_FALSE(simd::vector_active());
    EXPECT_TRUE(simd::use_kernels());
    EXPECT_EQ(simd::lane_width(), 1u);
    EXPECT_STREQ(simd::active_isa(), "scalar");
  }
  {
    simd::ScopedMode m(simd::Mode::kGeneric);
    EXPECT_FALSE(simd::use_kernels());
    EXPECT_FALSE(simd::vector_active());
  }
  {
    simd::ScopedMode m(simd::Mode::kAuto);
    // Whatever the host supports, the accessors must be consistent.
    if (simd::vector_active()) {
      EXPECT_TRUE(simd::kSimdBuilt);
      EXPECT_TRUE(simd::vec::available());
      EXPECT_EQ(simd::lane_width(), simd::kMaxLaneWords);
    } else {
      EXPECT_EQ(simd::lane_width(), 1u);
    }
  }
}

}  // namespace
}  // namespace obliv
