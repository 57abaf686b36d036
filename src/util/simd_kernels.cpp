// Vector implementations of the SIMD-layer kernels (simd.hpp).
//
// Built on GNU vector extensions (4 x f64 = 256-bit lanes).  On x86-64 the
// build adds -mavx2 to this TU when the compiler supports it (see
// src/CMakeLists.txt); the dispatcher then requires AVX2 at runtime via
// cpuid before routing here.  Without -mavx2 the same source lowers to
// 128-bit pairs -- still vectorized, no runtime requirement beyond the
// baseline ISA.  Compilers without the extensions (or OBLIV_SIMD=OFF
// builds) compile this TU down to forwarding stubs and the dispatcher
// never selects it.
//
// All memory access goes through simd::load_u / simd::store_u (memcpy):
// no alignment assumptions, no strict-aliasing casts.  Every loop steps in
// whole lanes and hands the tail to the scalar fallback, whose arithmetic
// is element-for-element identical (both TUs build with -ffp-contract=off).
#include "util/simd.hpp"

#if OBLIV_SIMD_ENABLED && (defined(__GNUC__) || defined(__clang__))
#define OBLIV_SIMD_VEC 1
#else
#define OBLIV_SIMD_VEC 0
#endif

#if OBLIV_SIMD_VEC && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace obliv::simd::vec {

#if OBLIV_SIMD_VEC

namespace {

typedef double f64x4 __attribute__((vector_size(32), may_alias));
typedef std::uint64_t u64x4 __attribute__((vector_size(32), may_alias));
// Comparisons on f64x4 yield a signed 64-bit mask vector.
typedef long long i64x4 __attribute__((vector_size(32), may_alias));

#if defined(__clang__)
#define OBLIV_SHUF(a, b, i0, i1, i2, i3) \
  __builtin_shufflevector(a, b, i0, i1, i2, i3)
#else
#define OBLIV_SHUF(a, b, i0, i1, i2, i3) \
  __builtin_shuffle(a, b, u64x4{i0, i1, i2, i3})
#endif

inline f64x4 splat(double s) { return f64x4{s, s, s, s}; }

// Branchless blend: lane l gets a[l] where mask[l] is all-ones, b[l] where
// zero.  Avoids relying on vector ?: support across compiler versions.
inline f64x4 blend(i64x4 mask, f64x4 a, f64x4 b) {
  const i64x4 ab = reinterpret_cast<i64x4&>(a);
  const i64x4 bb = reinterpret_cast<i64x4&>(b);
  i64x4 r = (ab & mask) | (bb & ~mask);
  return reinterpret_cast<f64x4&>(r);
}

// dst[l] = x[idx[l]] for 4 lanes.
inline f64x4 gather4(const double* x, u64x4 idx) {
#if defined(__AVX2__)
  const __m256i iv = reinterpret_cast<__m256i&>(idx);
  __m256d g = _mm256_i64gather_pd(x, iv, 8);
  return reinterpret_cast<f64x4&>(g);
#else
  return f64x4{x[idx[0]], x[idx[1]], x[idx[2]], x[idx[3]]};
#endif
}

}  // namespace

bool available() noexcept { return true; }

bool requires_avx2() noexcept {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

void copy_bytes(const void* src, void* dst, std::size_t n) noexcept {
  std::memcpy(dst, src, n);  // libc memcpy is already the widest copy
}

void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const f64x4 a = load_u<f64x4>(src + 2 * i);      // pairs i, i+1
    const f64x4 b = load_u<f64x4>(src + 2 * i + 4);  // pairs i+2, i+3
    const f64x4 ev = OBLIV_SHUF(a, b, 0, 2, 4, 6);
    const f64x4 od = OBLIV_SHUF(a, b, 1, 3, 5, 7);
    store_u(dst + i, ev + od);
  }
  scalar::pair_sum_f64(src + 2 * i, dst + i, pairs - i);
}

void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const u64x4 a = load_u<u64x4>(src + 2 * i);
    const u64x4 b = load_u<u64x4>(src + 2 * i + 4);
    const u64x4 ev = OBLIV_SHUF(a, b, 0, 2, 4, 6);
    const u64x4 od = OBLIV_SHUF(a, b, 1, 3, 5, 7);
    store_u(dst + i, ev + od);
  }
  scalar::pair_sum_u64(src + 2 * i, dst + i, pairs - i);
}

void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept {
  std::size_t i = i_lo;
  for (; i + 4 <= i_hi; i += 4) {
    const f64x4 tp = load_u<f64x4>(t + i - 1);  // t[i-1 .. i+2]
    const f64x4 tc = load_u<f64x4>(t + i);      // t[i   .. i+3]
    const f64x4 va = load_u<f64x4>(v + 2 * i);
    const f64x4 vb = load_u<f64x4>(v + 2 * i + 4);
    const f64x4 ev = OBLIV_SHUF(va, vb, 0, 2, 4, 6) + tp;
    const f64x4 lo = OBLIV_SHUF(ev, tc, 0, 4, 1, 5);  // e0 t0 e1 t1
    const f64x4 hi = OBLIV_SHUF(ev, tc, 2, 6, 3, 7);  // e2 t2 e3 t3
    store_u(v + 2 * i, lo);
    store_u(v + 2 * i + 4, hi);
  }
  scalar::scan_expand_f64(t, v, i, i_hi);
}

void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept {
  std::size_t i = i_lo;
  for (; i + 4 <= i_hi; i += 4) {
    const u64x4 tp = load_u<u64x4>(t + i - 1);
    const u64x4 tc = load_u<u64x4>(t + i);
    const u64x4 va = load_u<u64x4>(v + 2 * i);
    const u64x4 vb = load_u<u64x4>(v + 2 * i + 4);
    const u64x4 ev = OBLIV_SHUF(va, vb, 0, 2, 4, 6) + tp;
    const u64x4 lo = OBLIV_SHUF(ev, tc, 0, 4, 1, 5);
    const u64x4 hi = OBLIV_SHUF(ev, tc, 2, 6, 3, 7);
    store_u(v + 2 * i, lo);
    store_u(v + 2 * i + 4, hi);
  }
  scalar::scan_expand_u64(t, v, i, i_hi);
}

void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const f64x4 ar = load_u<f64x4>(ra + j), ai = load_u<f64x4>(ia + j);
    const f64x4 xr = load_u<f64x4>(rb + j), xi = load_u<f64x4>(ib + j);
    const f64x4 wr = load_u<f64x4>(wre + j), wi = load_u<f64x4>(wim + j);
    const f64x4 br = xr * wr - xi * wi;
    const f64x4 bi = xr * wi + xi * wr;
    store_u(ra + j, ar + br);
    store_u(ia + j, ai + bi);
    store_u(rb + j, ar - br);
    store_u(ib + j, ai - bi);
  }
  if (j < n) {
    scalar::butterfly_f64(ra + j, ia + j, rb + j, ib + j, wre + j, wim + j,
                          n - j);
  }
}

namespace {
// f-major twiddle tables W[t][f] = w[(f*t) % m] so the f loop vectorizes
// with contiguous loads; built once per m from the shared expression.
struct DftTab {
  double re[8][8];
  double im[8][8];
};
DftTab make_tab(unsigned m) {
  DftTab tab{};
  double wr[8], wi[8];
  simd::detail::dft_twiddles(wr, wi, m);
  for (unsigned t = 0; t < m; ++t) {
    for (unsigned f = 0; f < m; ++f) {
      tab.re[t][f] = wr[(f * t) % m];
      tab.im[t][f] = wi[(f * t) % m];
    }
  }
  return tab;
}
}  // namespace

void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept {
  if (m < 4) {
    scalar::dft_pow2_f64(re_in, im_in, re_out, im_out, m);
    return;
  }
  static const DftTab tab4 = make_tab(4);
  static const DftTab tab8 = make_tab(8);
  const DftTab& tab = m == 4 ? tab4 : tab8;
  for (unsigned f0 = 0; f0 < m; f0 += 4) {
    f64x4 ar = splat(0.0), ai = splat(0.0);
    for (unsigned t = 0; t < m; ++t) {
      const f64x4 wr = load_u<f64x4>(&tab.re[t][f0]);
      const f64x4 wi = load_u<f64x4>(&tab.im[t][f0]);
      const f64x4 br = splat(re_in[t]), bi = splat(im_in[t]);
      ar += br * wr - bi * wi;
      ai += br * wi + bi * wr;
    }
    store_u(re_out + f0, ar);
    store_u(im_out + f0, ai);
  }
}

void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept {
  const f64x4 uv = splat(u);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const f64x4 vv = load_u<f64x4>(v + j);
    const f64x4 yy = load_u<f64x4>(y + j);
    const f64x4 cand = uv + vv;
    const i64x4 lt = cand < yy;  // all-ones where cand is smaller
    store_u(y + j, blend(lt, cand, yy));
  }
  scalar::fw_min_f64(y + j, v + j, u, n - j);
}

void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept {
  const f64x4 fv = splat(f);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const f64x4 vv = load_u<f64x4>(v + j);
    const f64x4 yy = load_u<f64x4>(y + j);
    store_u(y + j, yy - fv * vv);
  }
  scalar::gauss_update_f64(y + j, v + j, f, n - j);
}

void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept {
  const f64x4 av = splat(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const f64x4 vv = load_u<f64x4>(v + j);
    const f64x4 yy = load_u<f64x4>(y + j);
    store_u(y + j, yy + av * vv);
  }
  scalar::axpy_f64(y + j, v + j, a, n - j);
}

namespace {
// Each tile kernel's step on a 4-lane column group, y op (u, v), and the
// scalar fallback that finishes the last n % 4 columns.
struct MulAdd {
  static f64x4 step(f64x4 y, f64x4 u, f64x4 v) { return y + u * v; }
  static constexpr auto edge = &scalar::tile_matmul_f64;
};
struct MinPlus {
  static f64x4 step(f64x4 y, f64x4 u, f64x4 v) {
    f64x4 cand = u + v;
#if defined(__AVX2__)
    // vminpd(a, b) is exactly `a < b ? a : b`, NaNs and signed zeros
    // included, and compilers keep the intrinsic's operand order: one
    // instruction where blend() takes four.
    __m256d r = _mm256_min_pd(reinterpret_cast<__m256d&>(cand),
                              reinterpret_cast<__m256d&>(y));
    return reinterpret_cast<f64x4&>(r);
#else
    return blend(cand < y, cand, y);
#endif
  }
  static constexpr auto edge = &scalar::tile_minplus_f64;
};

// R rows x W four-column groups of Y held in registers over the whole k
// walk; each element sees l = 0..k-1 in order, as in the row loop.
template <class Op, int R, int W>
inline void tile_block(double* y, std::size_t ldy, const double* u,
                       std::size_t ldu, const double* v, std::size_t ldv,
                       std::size_t k) {
  f64x4 acc[R][W];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) acc[r][w] = load_u<f64x4>(y + r * ldy + 4 * w);
  }
  for (std::size_t l = 0; l < k; ++l) {
    f64x4 vv[W];
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) vv[w] = load_u<f64x4>(v + l * ldv + 4 * w);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const f64x4 uu = splat(u[r * ldu + l]);
#pragma GCC unroll 2
      for (int w = 0; w < W; ++w) acc[r][w] = Op::step(acc[r][w], uu, vv[w]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int w = 0; w < W; ++w) store_u(y + r * ldy + 4 * w, acc[r][w]);
  }
}

// R rows of Y across all n columns: 8-wide blocks, one 4-wide block, then
// the scalar fallback for the last n % 4 columns.
template <class Op, int R>
inline void tile_rows(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t n, std::size_t k) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    tile_block<Op, R, 2>(y + j, ldy, u, ldu, v + j, ldv, k);
  }
  if (j + 4 <= n) {
    tile_block<Op, R, 1>(y + j, ldy, u, ldu, v + j, ldv, k);
    j += 4;
  }
  if (j < n) Op::edge(y + j, ldy, u, ldu, v + j, ldv, R, n - j, k);
}

template <class Op>
void tile_kernel(double* y, std::size_t ldy, const double* u, std::size_t ldu,
                 const double* v, std::size_t ldv, std::size_t m,
                 std::size_t n, std::size_t k) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    tile_rows<Op, 4>(y + i * ldy, ldy, u + i * ldu, ldu, v, ldv, n, k);
  }
  y += i * ldy;
  u += i * ldu;
  switch (m - i) {
    case 3: tile_rows<Op, 3>(y, ldy, u, ldu, v, ldv, n, k); break;
    case 2: tile_rows<Op, 2>(y, ldy, u, ldu, v, ldv, n, k); break;
    case 1: tile_rows<Op, 1>(y, ldy, u, ldu, v, ldv, n, k); break;
    default: break;
  }
}
}  // namespace

void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept {
  tile_kernel<MulAdd>(y, ldy, u, ldu, v, ldv, m, n, k);
}

void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept {
  tile_kernel<MinPlus>(y, ldy, u, ldu, v, ldv, m, n, k);
}

double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept {
  f64x4 acc = splat(0.0);
  const std::size_t groups = n / 4;
  if (stride_words == 2) {
    // AoS entries {u64 col; f64 val}: deinterleave 4 entries (8 words) per
    // step straight from the entry stream.
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint64_t* p = cols + 8 * g;
      const u64x4 w0 = load_u<u64x4>(p);      // c0 v0 c1 v1
      const u64x4 w1 = load_u<u64x4>(p + 4);  // c2 v2 c3 v3
      const u64x4 ci = OBLIV_SHUF(w0, w1, 0, 2, 4, 6);
      u64x4 vb = OBLIV_SHUF(w0, w1, 1, 3, 5, 7);
      acc += reinterpret_cast<f64x4&>(vb) * gather4(x, ci);
    }
  } else {
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t i = 4 * g * stride_words;
      const u64x4 ci = {cols[i], cols[i + stride_words],
                        cols[i + 2 * stride_words], cols[i + 3 * stride_words]};
      const f64x4 vv = {vals[i], vals[i + stride_words],
                        vals[i + 2 * stride_words],
                        vals[i + 3 * stride_words]};
      acc += vv * gather4(x, ci);
    }
  }
  double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (std::size_t i = 4 * groups; i < n; ++i) {
    const std::size_t k = i * stride_words;
    s += vals[k] * x[cols[k]];
  }
  return s;
}

void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store_u(dst + i, gather4(base, load_u<u64x4>(idx + i)));
  }
  scalar::gather_f64(base, idx + i, dst + i, n - i);
}

void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept {
  // Pure data movement at 16 bytes per element: one two-lane vector move
  // each, same element order as the scalar fallback.
  typedef double f64x2 __attribute__((vector_size(16), may_alias));
  for (std::size_t i = 0; i < n; ++i) {
    store_u(dst + 2 * i, load_u<f64x2>(base + 2 * idx[i]));
  }
}

#undef OBLIV_SHUF

#else  // !OBLIV_SIMD_VEC: forwarding stubs, never selected by the dispatcher.

bool available() noexcept { return false; }
bool requires_avx2() noexcept { return false; }
void copy_bytes(const void* src, void* dst, std::size_t n) noexcept {
  scalar::copy_bytes(src, dst, n);
}
void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept {
  scalar::pair_sum_f64(src, dst, pairs);
}
void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept {
  scalar::pair_sum_u64(src, dst, pairs);
}
void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept {
  scalar::scan_expand_f64(t, v, i_lo, i_hi);
}
void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept {
  scalar::scan_expand_u64(t, v, i_lo, i_hi);
}
void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept {
  scalar::butterfly_f64(ra, ia, rb, ib, wre, wim, n);
}
void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept {
  scalar::dft_pow2_f64(re_in, im_in, re_out, im_out, m);
}
void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept {
  scalar::fw_min_f64(y, v, u, n);
}
void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept {
  scalar::gauss_update_f64(y, v, f, n);
}
void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept {
  scalar::axpy_f64(y, v, a, n);
}
void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept {
  scalar::tile_matmul_f64(y, ldy, u, ldu, v, ldv, m, n, k);
}
void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept {
  scalar::tile_minplus_f64(y, ldy, u, ldu, v, ldv, m, n, k);
}
double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept {
  return scalar::dot_strided_f64(cols, vals, stride_words, x, n);
}
void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept {
  scalar::gather_f64(base, idx, dst, n);
}
void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept {
  scalar::gather_2f64(base, idx, dst, n);
}

#endif  // OBLIV_SIMD_VEC

}  // namespace obliv::simd::vec
