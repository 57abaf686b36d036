// MO-MT: multicore-oblivious matrix transposition (paper, Figure 2 and
// Theorem 1), plus the baselines it is compared against.
//
// MO-MT routes the transposition through an intermediate array I laid out in
// bit-interleaved (Z-Morton) order:
//
//   step 1 [CGC]:  I[z]           := A[beta^{-1}(z)]   (Morton gather)
//   step 2 [CGC]:  A^T[i*n + j]   := I[beta(j, i)]     (Morton scatter)
//
// Both steps are flat CGC pfors with O(1) work per index, so the critical
// pathlength is the CGC minimum-segment bound O(B_1) -- constant in n --
// which a parallelization of the recursive cache-oblivious transposition
// cannot achieve (it needs Theta(log n) depth).  Per Theorem 1 the level-i
// cache misses are O(n^2/(q_i B_i) + B_i) given tall caches.
//
// Native tile leaf (DESIGN.md §5f): Morton block t of I, of s x s
// elements, is tile deinterleave_bits(t) of A.  On direct-memory refs one
// CGC pass over the Morton tile indices therefore moves each tile of A
// straight to its transposed place, with no n^2 intermediate.  The tile
// side s is the largest power of two with a source and a destination tile
// in sched::kNativeLeafWords words.  Transposition is pure data movement,
// so the output is bit-identical by construction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "sched/hints.hpp"
#include "sched/views.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

namespace detail {

/// Native tile side for elements of `words` words: the largest power of
/// two s with 2 s^2 words (a source and a destination tile) <=
/// kNativeLeafWords -- 32 for double, 16 for complex<double>.
constexpr std::uint64_t transpose_tile_side(std::uint64_t words) {
  std::uint64_t s = 1;
  while (2 * (2 * s) * (2 * s) * words <= sched::kNativeLeafWords) s *= 2;
  return s;
}
template <class T>
inline constexpr std::uint64_t kTileSide =
    transpose_tile_side((sizeof(T) + 7) / 8);

/// dst[r][c] = src[c][r] for an s x s tile (leading dimensions lds and
/// ldd).  It writes rows of dst and reads down the columns of src: on
/// power-of-two leading dimensions that measured about twice as fast as
/// reading rows and writing columns.
template <class T>
void transpose_tile(const T* src, std::uint64_t lds, T* dst, std::uint64_t ldd,
                    std::uint64_t s) {
  for (std::uint64_t r = 0; r < s; ++r) {
    for (std::uint64_t c = 0; c < s; ++c) dst[r * ldd + c] = src[c * lds + r];
  }
}

/// Native MO-MT leaf: out = a^T for n x n matrices (n a power of two) with
/// leading dimensions lda and ldo, one CGC pass over the Morton tile
/// indices.  With out == a (then lda == ldo) it transposes in place: the
/// index with bi <= bj saves tile (bi, bj) in a stack tile, overwrites it
/// with the transpose of tile (bj, bi), then writes the saved tile's
/// transpose into (bj, bi); the index with bi > bj does nothing.
template <class Exec, class T>
void transpose_tiles(Exec& ex, T* a, std::uint64_t lda, T* out,
                     std::uint64_t ldo, std::uint64_t n) {
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  static_assert(4 * 2 * kTileSide<T> * kTileSide<T> * W >
                    sched::kNativeLeafWords,
                "NativeExecutor::cgc_pfor splits a tile loop at any tile");
  if (n == 0) return;
  const std::uint64_t s = std::min(n, kTileSide<T>);
  const std::uint64_t nb = n / s;
  ex.cgc_pfor(0, nb * nb, 2 * s * s * W,
              [&](std::uint64_t lo, std::uint64_t hi) {
    T x[kTileSide<T> * kTileSide<T>];
    for (std::uint64_t t = lo; t < hi; ++t) {
      const auto [bi, bj] = util::deinterleave_bits(t);
      T* p = a + (bi * lda + bj) * s;
      T* q = out + (bj * ldo + bi) * s;
      if (a != out) {
        transpose_tile(p, lda, q, ldo, s);
      } else if (bi <= bj) {
        for (std::uint64_t r = 0; r < s; ++r) {
          std::copy(p + r * lda, p + r * lda + s, x + r * s);
        }
        if (bi != bj) transpose_tile(q, ldo, p, lda, s);
        transpose_tile(x, s, q, ldo, s);
      }
    }
  });
}

}  // namespace detail

/// MO-MT.  `a` is an n x n row-major input, `out` receives the transpose
/// (row-major).  n must be a power of two (the bit-interleaving map requires
/// equal index widths).  Space bound: 3 n^2 (2 n^2 on the native tile
/// leaf, which needs no intermediate).
template <class Exec, class Ref>
void mo_transpose(Exec& ex, Ref a, Ref out, std::uint64_t n) {
  assert(util::is_pow2(n));
  assert(a.size() >= n * n && out.size() >= n * n);
  using T = typename Ref::value_type;
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;

  if constexpr (sched::is_direct_ref_v<Ref>) {
    if (simd::use_kernels()) {
      detail::transpose_tiles(ex, a.raw(), n, out.raw(), n, n);
      return;
    }
  }

  auto ibuf = ex.template make_buf<T>(n * n);
  auto I = ibuf.ref();

  // Step 1 [CGC]: gather A into bit-interleaved order.
  ex.cgc_pfor(0, n * n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const auto [i, j] = util::deinterleave_bits(z);
      I.store(z, a.load(i * n + j));
    }
  });

  // Step 2 [CGC]: scatter out of bit-interleaved order, transposed.
  ex.cgc_pfor(0, n * n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const std::uint64_t i = z / n, j = z % n;
      out.store(z, I.load(util::interleave_bits(j, i)));
    }
  });
}

/// In-place transposition of a square MatView via MO-MT semantics is not
/// needed by MO-FFT; MO-FFT transposes the full backing matrix.  This
/// overload transposes view `m` (must be square, power-of-two side, any
/// leading dimension) into itself using a scratch buffer; the native tile
/// leaf needs none.
template <class Exec, class Ref>
void mo_transpose_inplace(Exec& ex, sched::MatView<Ref> m) {
  const std::uint64_t n = m.rows();
  assert(m.cols() == n && util::is_pow2(n));
  using T = typename Ref::value_type;
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;

  if constexpr (sched::is_direct_ref_v<Ref>) {
    if (simd::use_kernels()) {
      T* base = m.row(0).raw();
      detail::transpose_tiles(ex, base, m.ld(), base, m.ld(), n);
      return;
    }
  }

  auto ibuf = ex.template make_buf<T>(n * n);
  auto I = ibuf.ref();

  ex.cgc_pfor(0, n * n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const auto [i, j] = util::deinterleave_bits(z);
      I.store(z, m.load(i, j));
    }
  });
  ex.cgc_pfor(0, n * n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const std::uint64_t i = z / n, j = z % n;
      m.store(i, j, I.load(util::interleave_bits(j, i)));
    }
  });
}

// ---------------------------------------------------------------------------
// Baselines for bench_table2's Theorem 1 rows.
// ---------------------------------------------------------------------------

/// Naive parallel transposition: out[i][j] = a[j][i] by rows.  Strided reads
/// incur Theta(n^2) misses per level when n exceeds the cache (no B_i
/// divisor) -- the curve MO-MT is compared against.
template <class Exec, class Ref>
void naive_transpose(Exec& ex, Ref a, Ref out, std::uint64_t n) {
  using T = typename Ref::value_type;
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  ex.cgc_pfor(0, n * n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const std::uint64_t i = z / n, j = z % n;
      out.store(z, a.load(j * n + i));
    }
  });
}

/// Parallelized recursive cache-oblivious transposition [1]: optimal misses
/// but Theta(log n) critical pathlength (the span comparison of Theorem 1).
/// Scheduled under SB: each recursive quadrant pair is a space-bounded fork.
template <class Exec, class Ref>
void recursive_transpose_helper(Exec& ex, sched::MatView<Ref> src,
                                sched::MatView<Ref> dst) {
  using T = typename Ref::value_type;
  const std::uint64_t r = src.rows(), c = src.cols();
  if (r * c <= 64) {
    for (std::uint64_t i = 0; i < r; ++i) {
      for (std::uint64_t j = 0; j < c; ++j) {
        dst.store(j, i, src.load(i, j));
      }
    }
    return;
  }
  const std::uint64_t space = 2 * (r / 2) * (c / 2) * ((sizeof(T) + 7) / 8);
  if (r >= c) {
    auto top = src.sub(0, 0, r / 2, c);
    auto bot = src.sub(r / 2, 0, r - r / 2, c);
    auto dtop = dst.sub(0, 0, c, r / 2);
    auto dbot = dst.sub(0, r / 2, c, r - r / 2);
    ex.sb_parallel(
        {{space, [&] { recursive_transpose_helper(ex, top, dtop); }},
         {space, [&] { recursive_transpose_helper(ex, bot, dbot); }}});
  } else {
    auto left = src.sub(0, 0, r, c / 2);
    auto right = src.sub(0, c / 2, r, c - c / 2);
    auto dleft = dst.sub(0, 0, c / 2, r);
    auto dright = dst.sub(c / 2, 0, c - c / 2, r);
    ex.sb_parallel(
        {{space, [&] { recursive_transpose_helper(ex, left, dleft); }},
         {space, [&] { recursive_transpose_helper(ex, right, dright); }}});
  }
}

template <class Exec, class Ref>
void recursive_transpose(Exec& ex, Ref a, Ref out, std::uint64_t n) {
  recursive_transpose_helper(ex, sched::MatView<Ref>::full(a, n, n),
                             sched::MatView<Ref>::full(out, n, n));
}

}  // namespace obliv::algo
