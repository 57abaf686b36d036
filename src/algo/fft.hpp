// MO-FFT: multicore-oblivious in-place FFT (paper, Figure 3 and Theorem 2).
//
// The algorithm is the HM adaptation of the cache-oblivious FFT of Frigo et
// al. [1] / the network-oblivious FFT of Bilardi et al. [4]: the length-n
// input is viewed as an n1 x n2 matrix (n1 = 2^ceil(k/2), n2 = 2^floor(k/2)),
// and the DFT decomposes into column FFTs, twiddle scaling and row FFTs,
// with MO-MT transposes turning column work into contiguous row work.
//
// Scheduler hints exactly as in Figure 3: the data-rearrangement steps are
// CGC (constant critical pathlength each), and the two batches of recursive
// sub-FFTs are CGC=>SB with space bound S(m) = 3m (the recursion's matrix
// scratch is at most 2m complex elements plus the input row).
//
// Theorem 2: O((n/p + B_1) log n) parallel steps and
// O((n/(q_i B_i)) log_{C_i} n) level-i cache misses, both optimal.
//
// Native serial leaf (DESIGN.md §5f): on direct-memory refs, a transform of
// 8 < n and 2n <= sched::kNativeLeafWords words runs Lines 1-10 serially
// in detail::fft_leaf, on 2n elements of stack scratch (no allocation) and
// with no scheduler construct.  It performs the same arithmetic on every
// element, so its output is bit-identical to the recursion's.
#pragma once

#include <cassert>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "algo/transpose.hpp"
#include "sched/hints.hpp"
#include "sched/views.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

using cplx = std::complex<double>;

namespace detail {

/// Native refs over complex<double> may take the split re/im simd kernels.
template <class Ref>
inline constexpr bool fft_kernel_v =
    sched::is_direct_ref_v<Ref> &&
    std::is_same_v<typename Ref::value_type, cplx>;

/// The complex product as plain IEEE arithmetic, (ac - bd, ad + bc): what
/// the split re/im simd kernels compute.  std::complex's operator* agrees
/// on finite operands but also recovers infinities where both parts come
/// out NaN (C Annex G), which the kernels do not; every twiddle product of
/// mo_fft goes through this helper so all paths share one contract.
inline cplx cmul(const cplx& a, const cplx& b) {
  return cplx(a.real() * b.real() - a.imag() * b.imag(),
              a.real() * b.imag() + a.imag() * b.real());
}

/// Size of the shared twiddle table: the largest power of two whose
/// table of complex doubles fits in 64 KiB.
inline constexpr std::uint64_t kTwiddleTableSize = 4096;

/// w_M^k = polar(1, -2*pi*k/M) for k < M = kTwiddleTableSize, built once on
/// first use (thread-safe) and read-only after.
inline const cplx* twiddle_table() {
  static const std::vector<cplx> table = [] {
    std::vector<cplx> t(kTwiddleTableSize);
    for (std::uint64_t k = 0; k < kTwiddleTableSize; ++k) {
      t[k] = std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(k) /
                                 static_cast<double>(kTwiddleTableSize));
    }
    return t;
  }();
  return table.data();
}

/// w_m^j = polar(1, -2*pi*j/m) for j < m, m a power of two.  For m up to
/// kTwiddleTableSize this is table entry j * (M/m), and bit-identical to
/// the direct expression: scaling the angle's numerator and denominator by
/// the same power of two changes neither rounding.  Larger m call
/// std::polar directly.
inline cplx twiddle(std::uint64_t j, std::uint64_t m) {
  if (m <= kTwiddleTableSize) {
    return twiddle_table()[j * (kTwiddleTableSize / m)];
  }
  return std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(j) /
                             static_cast<double>(m));
}

/// DFT of the m <= 8 points in[0], in[s_in], ... written to out[0],
/// out[s_out], ... (`in` may equal `out`), through the split re/im kernel.
/// The kernel uses dft_base's twiddle expression and accumulation order, so
/// the result is bit-identical to its generic loop.
inline void dft_small(const cplx* in, std::uint64_t s_in, cplx* out,
                      std::uint64_t s_out, std::uint64_t m) {
  assert(m <= 8);
  double re_in[8] = {}, im_in[8] = {}, re_out[8], im_out[8];
  for (std::uint64_t t = 0; t < m; ++t) {
    re_in[t] = in[t * s_in].real();
    im_in[t] = in[t * s_in].imag();
  }
  simd::dft_pow2_f64(re_in, im_in, re_out, im_out, static_cast<unsigned>(m));
  for (std::uint64_t f = 0; f < m; ++f) {
    out[f * s_out] = cplx(re_out[f], im_out[f]);
  }
}

/// Direct O(m^2) DFT used at the recursion base (m is a small constant, so
/// this does not affect asymptotics).  Convention: Y[f] = sum_t x[t] *
/// exp(-2*pi*i*f*t/m).
template <class Exec, class Ref>
void dft_base(Exec& ex, Ref x) {
  const std::uint64_t m = x.size();
  cplx in[8], out[8];
  assert(m <= 8);
  if constexpr (fft_kernel_v<Ref>) {
    if (simd::use_kernels()) {
      dft_small(x.raw(), 1, x.raw(), 1, m);
      return;
    }
  }
  for (std::uint64_t t = 0; t < m; ++t) in[t] = x.load(t);
  for (std::uint64_t f = 0; f < m; ++f) {
    cplx acc{0.0, 0.0};
    for (std::uint64_t t = 0; t < m; ++t) {
      acc += cmul(in[t], twiddle((f * t) % m, m));
      ex.tick(4);
    }
    out[f] = acc;
  }
  for (std::uint64_t f = 0; f < m; ++f) x.store(f, out[f]);
}

/// Native serial leaf: Lines 1-10 of Figure 3, serially on raw memory,
/// transforming the n points in[0], in[s_in], ... into out[0], out[s_out],
/// ... (`in` may equal `out`).  Every output sees mo_fft's arithmetic -- the
/// same sub-transforms, the same twiddle products and the same dft_small at
/// m <= 8.  Only the data movement differs: the sub-transforms read and
/// write with strides, which replaces the three transposes and the copies
/// in and out.  `scratch` holds 2n elements, neither overlapping `in` nor
/// `out`: the n2 x n1 matrix T, then the sub-transforms' scratch (n1 <= n/2
/// for n >= 16, so n + 2*n1 <= 2n).
inline void fft_leaf(const cplx* in, std::uint64_t s_in, cplx* out,
                     std::uint64_t s_out, std::uint64_t n, cplx* scratch) {
  if (n <= 8) {
    dft_small(in, s_in, out, s_out, n);
    return;
  }
  const unsigned k = util::ilog2(n);
  const std::uint64_t n1 = std::uint64_t{1} << ((k + 1) / 2);
  const std::uint64_t n2 = std::uint64_t{1} << (k / 2);
  cplx* t = scratch;
  cplx* sub = scratch + n;
  // Lines 3-5: row j of T is the FFT of column j of X viewed as n1 x n2,
  // i.e. of X[i*n2 + j] for i < n1.
  for (std::uint64_t j = 0; j < n2; ++j) {
    fft_leaf(in + j * s_in, n2 * s_in, t + j * n1, 1, n1, sub);
  }
  // Line 6: entry (b, c) is scaled by w_n^{b*c} = twiddle((b*c) % n, n),
  // read straight from the table (b*c < n <= kTwiddleTableSize).
  const cplx* w = twiddle_table();
  const std::uint64_t stride = kTwiddleTableSize / n;
  for (std::uint64_t b = 0; b < n2; ++b) {
    for (std::uint64_t c = 0; c < n1; ++c) {
      t[b * n1 + c] = cmul(t[b * n1 + c], w[b * c * stride]);
    }
  }
  // Lines 7-10: X[b*n1 + c] is entry b of the FFT of column c of T.
  for (std::uint64_t c = 0; c < n1; ++c) {
    fft_leaf(t + c, n1, out + c * s_out, n1 * s_out, n2, sub);
  }
}

/// fft_leaf of n <= kNativeLeafWords / 2 points in place, on uninitialised
/// stack scratch.  Not inlined, so the 32 KiB frame exists only while a
/// leaf runs, not in every frame of the recursion above it.
[[gnu::noinline]] inline void fft_leaf_inplace(cplx* x, std::uint64_t n) {
  assert(2 * n <= sched::kNativeLeafWords);
  alignas(cplx) unsigned char scratch[sched::kNativeLeafWords * sizeof(cplx)];
  fft_leaf(x, 1, x, 1, n, reinterpret_cast<cplx*>(scratch));
}

}  // namespace detail

/// MO-FFT.  In-place DFT of `x` (size a power of two), convention
/// Y[f] = sum_t x[t] exp(-2 pi i f t / n).  Space bound S(n) = 3n elements.
template <class Exec, class Ref>
void mo_fft(Exec& ex, Ref x) {
  const std::uint64_t n = x.size();
  assert(util::is_pow2(n));
  constexpr std::uint64_t W = (sizeof(cplx) + 7) / 8;  // 2 words per element

  // Line 1: small-constant base case.
  if (n <= 8) {
    detail::dft_base(ex, x);
    return;
  }
  if constexpr (detail::fft_kernel_v<Ref>) {
    if (simd::use_kernels() && n * W <= sched::kNativeLeafWords) {
      detail::fft_leaf_inplace(x.raw(), n);
      return;
    }
  }

  // Line 2: n1 = 2^ceil(k/2), n2 = 2^floor(k/2).
  const unsigned k = util::ilog2(n);
  const std::uint64_t n1 = std::uint64_t{1} << ((k + 1) / 2);
  const std::uint64_t n2 = std::uint64_t{1} << (k / 2);

  auto abuf = ex.template make_buf<cplx>(n1 * n1);
  auto A = sched::MatView<Ref>::full(abuf.ref(), n1, n1);

  // Line 3 [CGC]: A[i][j] := X[i*n2 + j] for i < n1, j < n2.
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    if constexpr (detail::fft_kernel_v<Ref>) {
      if (simd::use_kernels()) {
        // Row i of the n1 x n2 region is the contiguous run
        // x[i*n2 .. (i+1)*n2) landing at A + i*n1; move per-segment.
        cplx* a0 = A.row(0).raw();
        const cplx* xs = x.raw();
        std::uint64_t z = lo;
        while (z < hi) {
          const std::uint64_t i = z / n2, j = z % n2;
          const std::uint64_t cnt = std::min(hi - z, n2 - j);
          simd::copy_elems(xs + z, a0 + i * n1 + j, cnt);
          z += cnt;
        }
        return;
      }
    }
    for (std::uint64_t z = lo; z < hi; ++z) {
      A.store(z / n2, z % n2, x.load(z));
    }
  });

  // Line 4 [CGC]: MO-MT(A, n1).
  mo_transpose_inplace(ex, A);

  // Line 5 [CGC=>SB]: FFT each of the first n2 rows (length n1).
  ex.cgc_sb_pfor(n2, 3 * n1 * W, [&](std::uint64_t i) {
    mo_fft(ex, A.row(i));
  });

  // Line 6 [CGC]: twiddle the first n entries: entry (b, c) of the n2 x n1
  // region is scaled by w_n^{b*c}.
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const std::uint64_t b = z / n1, c = z % n1;
      A.store(b, c,
              detail::cmul(A.load(b, c), detail::twiddle((b * c) % n, n)));
      ex.tick(8);
    }
  });

  // Line 7 [CGC]: MO-MT(A, n1).
  mo_transpose_inplace(ex, A);

  // Line 8 [CGC=>SB]: FFT each of the n1 rows restricted to length n2.
  ex.cgc_sb_pfor(n1, 3 * n2 * W, [&](std::uint64_t i) {
    mo_fft(ex, A.row(i).slice(0, n2));
  });

  // Line 9 [CGC]: MO-MT(A, n1).
  mo_transpose_inplace(ex, A);

  // Line 10 [CGC]: copy the first n entries of A back into X.
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    if constexpr (detail::fft_kernel_v<Ref>) {
      if (simd::use_kernels()) {
        // A's leading dimension is n1, so element (z/n1, z%n1) sits at flat
        // offset z: the copy-back is one contiguous run.
        simd::copy_elems(A.row(0).raw() + lo, x.raw() + lo, hi - lo);
        return;
      }
    }
    for (std::uint64_t z = lo; z < hi; ++z) {
      x.store(z, A.load(z / n1, z % n1));
    }
  });
}

/// Inverse DFT via the conjugation identity (used by examples/tests).
template <class Exec, class Ref>
void mo_ifft(Exec& ex, Ref x) {
  const std::uint64_t n = x.size();
  constexpr std::uint64_t W = (sizeof(cplx) + 7) / 8;
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) x.store(z, std::conj(x.load(z)));
  });
  mo_fft(ex, x);
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      x.store(z, std::conj(x.load(z)) / static_cast<double>(n));
    }
  });
}

// ---------------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------------

/// Iterative radix-2 Cooley-Tukey (bit-reversal + log n butterfly passes).
/// Cache-aware codes block this; unblocked it incurs Theta((n/B) log n)
/// misses once n exceeds the cache -- the baseline curve of bench_table2's
/// Theorem 2 rows.
template <class Exec, class Ref>
void iterative_fft(Exec& ex, Ref x) {
  const std::uint64_t n = x.size();
  assert(util::is_pow2(n));
  const unsigned k = util::ilog2(n);
  constexpr std::uint64_t W = (sizeof(cplx) + 7) / 8;
  sched::cgc_pfor_each(ex, 0, n, W, [&](std::uint64_t z) {
    const std::uint64_t r = util::reverse_bits(z, k);
    if (r > z) {
      const cplx a = x.load(z);
      x.store(z, x.load(r));
      x.store(r, a);
    }
  });
  if constexpr (detail::fft_kernel_v<Ref>) {
    if (simd::use_kernels()) {
      // Native fast path: deinterleave once into split re/im arrays,
      // precompute each pass's twiddles with the same polar(1, -2*pi*off/len)
      // expression, and run every pass through the vector butterflies.
      // Finite-input results are bit-identical to the generic loop below.
      auto rebuf = ex.template make_buf<double>(n);
      auto imbuf = ex.template make_buf<double>(n);
      auto wrbuf = ex.template make_buf<double>(n / 2);
      auto wibuf = ex.template make_buf<double>(n / 2);
      double* re = rebuf.ref().raw();
      double* im = imbuf.ref().raw();
      double* wre = wrbuf.ref().raw();
      double* wim = wibuf.ref().raw();
      double* xd = reinterpret_cast<double*>(x.raw());
      ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t z = lo; z < hi; ++z) {
          re[z] = xd[2 * z];
          im[z] = xd[2 * z + 1];
        }
      });
      for (std::uint64_t len = 2; len <= n; len <<= 1) {
        const std::uint64_t half = len / 2;
        for (std::uint64_t off = 0; off < half; ++off) {
          const double ang = -2.0 * std::numbers::pi *
                             static_cast<double>(off) /
                             static_cast<double>(len);
          wre[off] = std::cos(ang);
          wim[off] = std::sin(ang);
        }
        // Butterfly t = (blk, off) touches re/im[blk*len + off] and its
        // partner at +half; a contiguous t-range decomposes into per-block
        // off-segments, each one kernel call.
        ex.cgc_pfor(0, n / 2, 2 * W, [&](std::uint64_t lo, std::uint64_t hi) {
          std::uint64_t t = lo;
          while (t < hi) {
            const std::uint64_t blk = t / half, off = t % half;
            const std::uint64_t cnt = std::min(hi - t, half - off);
            const std::uint64_t base = blk * len + off;
            simd::butterfly_f64(re + base, im + base, re + base + half,
                                im + base + half, wre + off, wim + off, cnt);
            t += cnt;
          }
        });
      }
      ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t z = lo; z < hi; ++z) {
          xd[2 * z] = re[z];
          xd[2 * z + 1] = im[z];
        }
      });
      return;
    }
  }
  for (std::uint64_t len = 2; len <= n; len <<= 1) {
    const std::uint64_t half = len / 2;
    sched::cgc_pfor_each(ex, 0, n / 2, 2 * W, [&](std::uint64_t t) {
      const std::uint64_t blk = t / half, off = t % half;
      const std::uint64_t base = blk * len + off;
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(off) / static_cast<double>(len);
      const cplx w = std::polar(1.0, ang);
      const cplx a = x.load(base);
      const cplx b = x.load(base + half) * w;
      x.store(base, a + b);
      x.store(base + half, a - b);
      ex.tick(8);
    });
  }
}

/// Plain O(n^2) reference DFT on host vectors, for correctness tests.
inline std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
  const std::uint64_t n = x.size();
  std::vector<cplx> y(n);
  for (std::uint64_t f = 0; f < n; ++f) {
    cplx acc{0.0, 0.0};
    for (std::uint64_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>((f * t) % n) /
                         static_cast<double>(n);
      acc += x[t] * std::polar(1.0, ang);
    }
    y[f] = acc;
  }
  return y;
}

}  // namespace obliv::algo
