// Scalar fallbacks + runtime dispatch for the SIMD layer (simd.hpp).
//
// This TU is compiled with -ffp-contract=off (see src/CMakeLists.txt) so
// the fallback arithmetic cannot be FMA-contracted away from the vector
// TU's results -- the ON/OFF golden test in test_simd_kernels.cpp depends
// on scalar:: and vec:: being bit-identical.
#include "util/simd.hpp"

#include <cmath>
#include <numbers>

namespace obliv::simd {

namespace detail {
std::atomic<Mode> g_mode{Mode::kAuto};

void dft_twiddles(double* wr, double* wi, unsigned m) noexcept {
  for (unsigned j = 0; j < m; ++j) {
    // Matches algo::detail::dft_base: polar(1.0, -2*pi*j/m); the rho = 1.0
    // scale inside std::polar is exact, so cos/sin give the same bits.
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(j) /
                       static_cast<double>(m);
    wr[j] = std::cos(ang);
    wi[j] = std::sin(ang);
  }
}

bool vector_supported() noexcept {
  static const bool ok = [] {
    if (!vec::available()) return false;
#if defined(__x86_64__) || defined(__i386__)
    if (vec::requires_avx2()) return __builtin_cpu_supports("avx2") != 0;
#endif
    return true;
  }();
  return ok;
}
}  // namespace detail

unsigned lane_width() noexcept { return vector_active() ? kMaxLaneWords : 1; }

const char* active_isa() noexcept {
  if (!vector_active()) return "scalar";
  return vec::requires_avx2() ? "avx2" : "vec128";
}

namespace scalar {

void copy_bytes(const void* src, void* dst, std::size_t n) noexcept {
  std::memcpy(dst, src, n);
}

void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept {
  for (std::size_t i = 0; i < pairs; ++i) dst[i] = src[2 * i] + src[2 * i + 1];
}

void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept {
  for (std::size_t i = 0; i < pairs; ++i) dst[i] = src[2 * i] + src[2 * i + 1];
}

void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept {
  for (std::size_t i = i_lo; i < i_hi; ++i) {
    v[2 * i] = t[i - 1] + v[2 * i];
    v[2 * i + 1] = t[i];
  }
}

void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept {
  for (std::size_t i = i_lo; i < i_hi; ++i) {
    v[2 * i] = t[i - 1] + v[2 * i];
    v[2 * i + 1] = t[i];
  }
}

void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    const double ar = ra[j], ai = ia[j];
    const double xr = rb[j], xi = ib[j];
    const double br = xr * wre[j] - xi * wim[j];
    const double bi = xr * wim[j] + xi * wre[j];
    ra[j] = ar + br;
    ia[j] = ai + bi;
    rb[j] = ar - br;
    ib[j] = ai - bi;
  }
}

void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept {
  // Same twiddle expression as the generic path: polar(1, -2*pi*j/m).
  double wr[8], wi[8];
  detail::dft_twiddles(wr, wi, m);
  for (unsigned f = 0; f < m; ++f) {
    double ar = 0.0, ai = 0.0;
    for (unsigned t = 0; t < m; ++t) {
      const unsigned j = (f * t) % m;
      // complex acc += in * w with libstdc++'s finite-path product order.
      const double pr = re_in[t] * wr[j] - im_in[t] * wi[j];
      const double pi = re_in[t] * wi[j] + im_in[t] * wr[j];
      ar += pr;
      ai += pi;
    }
    re_out[f] = ar;
    im_out[f] = ai;
  }
}

void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    const double cand = u + v[j];
    y[j] = cand < y[j] ? cand : y[j];
  }
}

void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) y[j] = y[j] - f * v[j];
}

void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) y[j] = y[j] + a * v[j];
}

void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept {
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t i = 0; i < m; ++i) {
      axpy_f64(y + i * ldy, v + l * ldv, u[i * ldu + l], n);
    }
  }
}

void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept {
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t i = 0; i < m; ++i) {
      fw_min_f64(y + i * ldy, v + l * ldv, u[i * ldu + l], n);
    }
  }
}

double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept {
  // Mirrors the vector path exactly: 4 independent accumulators over full
  // groups, combined pairwise, then a sequential tail.
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t groups = n / 4;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t l = 0; l < 4; ++l) {
      const std::size_t i = (4 * g + l) * stride_words;
      acc[l] += vals[i] * x[cols[i]];
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
  for (std::size_t i = 0; i < n; ++i) dst[i] = base[idx[i]];
}

void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[2 * i] = base[2 * idx[i]];
    dst[2 * i + 1] = base[2 * idx[i] + 1];
  }
}

}  // namespace scalar

// ---- dispatchers ---------------------------------------------------------

#define OBLIV_SIMD_DISPATCH(call) \
  (vector_active() ? vec::call : scalar::call)

void copy_bytes(const void* src, void* dst, std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(copy_bytes(src, dst, n));
}
void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept {
  OBLIV_SIMD_DISPATCH(pair_sum_f64(src, dst, pairs));
}
void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept {
  OBLIV_SIMD_DISPATCH(pair_sum_u64(src, dst, pairs));
}
void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept {
  OBLIV_SIMD_DISPATCH(scan_expand_f64(t, v, i_lo, i_hi));
}
void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept {
  OBLIV_SIMD_DISPATCH(scan_expand_u64(t, v, i_lo, i_hi));
}
void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(butterfly_f64(ra, ia, rb, ib, wre, wim, n));
}
void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept {
  OBLIV_SIMD_DISPATCH(dft_pow2_f64(re_in, im_in, re_out, im_out, m));
}
void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(fw_min_f64(y, v, u, n));
}
void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(gauss_update_f64(y, v, f, n));
}
void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(axpy_f64(y, v, a, n));
}
void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept {
  OBLIV_SIMD_DISPATCH(tile_matmul_f64(y, ldy, u, ldu, v, ldv, m, n, k));
}
void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept {
  OBLIV_SIMD_DISPATCH(tile_minplus_f64(y, ldy, u, ldu, v, ldv, m, n, k));
}
double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept {
  return OBLIV_SIMD_DISPATCH(dot_strided_f64(cols, vals, stride_words, x, n));
}
void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(gather_f64(base, idx, dst, n));
}
void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept {
  OBLIV_SIMD_DISPATCH(gather_2f64(base, idx, dst, n));
}

#undef OBLIV_SIMD_DISPATCH

}  // namespace obliv::simd
