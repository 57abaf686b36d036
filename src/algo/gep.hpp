// The Gaussian Elimination Paradigm (GEP) and its cache-oblivious recursive
// implementation I-GEP under the SB scheduler (paper, Section V, Figure 5,
// the appendix pseudocode, and Theorem 5).
//
// GEP is the triple loop of Figure 5: for each update triple <i,j,k> in
// Sigma_f (in k-major order), x[i,j] <- f(x[i,j], x[i,k], x[k,j], x[k,k]).
// Instances include Floyd-Warshall APSP, Gaussian elimination / LU without
// pivoting, and matrix multiplication.
//
// I-GEP solves the same problem with four mutually recursive functions
// A, B, C, D that differ in how much the parameter matrices
// X = x[I,J], U = x[I,K], V = x[K,J], W = x[K,K] overlap:
//   A: I = J = K (all overlap)    B: K = I    C: K = J    D: all disjoint.
// The less the overlap, the more recursive calls can run in parallel.  Every
// recursive call is annotated with its space bound (S_A(m) = m^2,
// S_B = S_C = 2 m^2, S_D = 4 m^2) and forked under the SB hint, which is
// what Theorem 5 requires: O(n^3/(q_i B_i sqrt(C_i))) level-i misses and
// O(n^3/p) parallel steps.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/status.hpp"
#include "sched/hints.hpp"
#include "sched/views.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

/// Half-open index interval [lo, hi).
struct Interval {
  std::uint64_t lo = 0, hi = 0;
  std::uint64_t len() const { return hi - lo; }
  Interval low_half() const { return {lo, lo + len() / 2}; }
  Interval high_half() const { return {lo + len() / 2, hi}; }
  bool operator==(const Interval&) const = default;
};

// A GEP instance supplies:
//   using value_type = T;
//   static T f(T y, T u, T v, T w);
//   static bool in_sigma(u64 i, u64 j, u64 k);
//   static bool intersects(Interval I, Interval J, Interval K);
// `intersects` may be conservative (returning true is always safe); exact
// pruning only speeds things up.

/// Floyd-Warshall all-pairs shortest paths: Sigma_f = all triples,
/// f(y,u,v,w) = min(y, u + v).
struct FloydWarshallInstance {
  using value_type = double;
  static double f(double y, double u, double v, double /*w*/) {
    const double cand = u + v;
    return cand < y ? cand : y;
  }
  static bool in_sigma(std::uint64_t, std::uint64_t, std::uint64_t) {
    return true;
  }
  static bool intersects(Interval, Interval, Interval) { return true; }
  // Native row kernel: the j-range of Sigma_f at fixed (i, k), and the
  // vectorized row update over it (y = row i, v = row k, u = x[i][k]).
  static Interval sigma_j(std::uint64_t, std::uint64_t, Interval J) {
    return J;
  }
  static void row_kernel(double* y, const double* v, double u, double /*w*/,
                         std::size_t n) {
    simd::fw_min_f64(y, v, u, n);
  }
  // Native function-D tile (K disjoint from I and J, so no store can
  // change an operand): a whole tile in one register-blocked call.
  static void tile_kernel(double* y, std::size_t ldy, const double* u,
                          std::size_t ldu, const double* v, std::size_t ldv,
                          std::size_t m, std::size_t n, std::size_t k) {
    simd::tile_minplus_f64(y, ldy, u, ldu, v, ldv, m, n, k);
  }
};

/// Gaussian elimination / LU decomposition without pivoting:
/// Sigma_f = { <i,j,k> : i > k and j > k }, f(y,u,v,w) = y - (u/w) * v.
struct GaussianInstance {
  using value_type = double;
  static double f(double y, double u, double v, double w) {
    return y - (u / w) * v;
  }
  static bool in_sigma(std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    return i > k && j > k;
  }
  static bool intersects(Interval I, Interval J, Interval K) {
    // exists i in I, j in J, k in K with i > k, j > k.
    return I.hi > K.lo + 1 && J.hi > K.lo + 1;
  }
  static Interval sigma_j(std::uint64_t i, std::uint64_t k, Interval J) {
    if (i <= k) return {J.lo, J.lo};
    return {std::max(J.lo, k + 1), std::max(J.lo, J.hi)};
  }
  static void row_kernel(double* y, const double* v, double u, double w,
                         std::size_t n) {
    // f divides u/w once per row; the generic loop divides per element but
    // with identical operands, so every element's bits match.
    simd::gauss_update_f64(y, v, u / w, n);
  }
};

/// Matrix multiplication embedded in a 2n x 2n GEP matrix laid out as
/// [[ *, B ], [ A, C ]]: updates { i in [n,2n), j in [n,2n), k in [0,n) }
/// with f(y,u,v,w) = y + u * v compute C += A * B.
struct MatMulEmbedInstance {
  using value_type = double;
  // `half` must be set (per run) to n; kept as a static for simplicity --
  // tests set it before running.
  static inline std::uint64_t half = 0;
  static double f(double y, double u, double v, double /*w*/) {
    return y + u * v;
  }
  static bool in_sigma(std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    return i >= half && j >= half && k < half;
  }
  static bool intersects(Interval I, Interval J, Interval K) {
    return I.hi > half && J.hi > half && K.lo < half;
  }
  static Interval sigma_j(std::uint64_t i, std::uint64_t k, Interval J) {
    if (i < half || k >= half) return {J.lo, J.lo};
    return {std::max(J.lo, half), std::max(J.lo, J.hi)};
  }
  static void row_kernel(double* y, const double* v, double u, double /*w*/,
                         std::size_t n) {
    simd::axpy_f64(y, v, u, n);
  }
};

/// Table-I recursive call orders for function D.  Schedule D issues the
/// eight subcalls as two k-major rounds of four; schedule D* permutes the
/// calls *within* each round (each X quadrant still updated exactly once
/// per round, each (quadrant, k) pair exactly once overall) so that
/// consecutive subtasks assigned to the same cache share operand quadrants.
/// Work and depth are identical -- exactly the property the trace analyzer
/// verifies (equal work, equal span) -- only the miss profile differs.
enum class GepSchedule : std::uint8_t { kD, kDstar };

namespace detail {

enum class GepFn : std::uint8_t { kA, kB, kC, kD };

inline GepFn classify(const Interval& I, const Interval& J,
                      const Interval& K) {
  if (I == K && J == K) return GepFn::kA;
  if (K == I) return GepFn::kB;
  if (K == J) return GepFn::kC;
  return GepFn::kD;
}

/// Space bound (in elements == words for double) of a GEP function call on
/// an m x m block, per the appendix: A: m^2, B/C: 2m^2, D: 4m^2.
inline std::uint64_t gep_space(GepFn fn, std::uint64_t m) {
  switch (fn) {
    case GepFn::kA:
      return m * m;
    case GepFn::kB:
    case GepFn::kC:
      return 2 * m * m;
    case GepFn::kD:
      return 4 * m * m;
  }
  return 4 * m * m;
}

/// True when the instance exposes the native row-kernel hooks and the ref is
/// plain double memory -- the only combination the simd leaves may take.
template <class Inst, class Ref>
inline constexpr bool gep_row_kernel_v =
    sched::is_direct_ref_v<Ref> &&
    std::is_same_v<typename Ref::value_type, double> &&
    requires(double* y, const double* v, double u, double w, std::size_t n,
             std::uint64_t i, std::uint64_t k, Interval J) {
      Inst::row_kernel(y, v, u, w, n);
      Inst::sigma_j(i, k, J);
    };

/// True when the instance also exposes a function-D tile kernel.
template <class Inst, class Ref>
inline constexpr bool gep_tile_kernel_v =
    gep_row_kernel_v<Inst, Ref> &&
    requires(double* y, const double* c, std::size_t s) {
      Inst::tile_kernel(y, s, c, s, c, s, s, s, s);
    };

inline bool disjoint(const Interval& a, const Interval& b) {
  return a.hi <= b.lo || b.hi <= a.lo;
}

/// Sequential base case: the Figure-5 triple loop restricted to the tile
/// I x J x K.  Equivalent to full recursion for instances satisfying the
/// I-GEP correctness conditions.
template <class Inst, class Ref>
void gep_base(sched::MatView<Ref> x, Interval I, Interval J, Interval K) {
  if constexpr (gep_row_kernel_v<Inst, Ref>) {
    // Gated on vector_active(), not use_kernels(): the kernels pay an
    // out-of-line dispatch per call (per (k, i) row here, per tile for
    // gep_rec's function-D tiles), which only pays off when real lanes
    // amortize it.  Scalar mode (== an OBLIV_SIMD=OFF build) keeps the
    // generic triple loop -- results are bit-identical either way (same
    // per-element arithmetic and order; goldened in test_simd_kernels.cpp),
    // so this is purely a speed decision.
    if (simd::vector_active()) {
      for (std::uint64_t k = K.lo; k < K.hi; ++k) {
        const double* v = x.row(k).raw();
        for (std::uint64_t i = I.lo; i < I.hi; ++i) {
          const Interval js = Inst::sigma_j(i, k, J);
          if (js.lo >= js.hi) continue;
          double* y = x.row(i).raw();
          auto run = [&](std::uint64_t jlo, std::uint64_t jhi) {
            if (jlo >= jhi) return;
            Inst::row_kernel(y + jlo, v + jlo, x.load(i, k), x.load(k, k),
                             jhi - jlo);
          };
          if (k >= js.lo && k < js.hi) {
            // The j == k store rewrites x[i][k] = u (and x[k][k] = w when
            // i == k), so split the row there and reload the scalars.
            run(js.lo, k);
            x.store(i, k, Inst::f(x.load(i, k), x.load(i, k), x.load(k, k),
                                  x.load(k, k)));
            run(k + 1, js.hi);
          } else {
            run(js.lo, js.hi);
          }
        }
      }
      return;
    }
  }
  for (std::uint64_t k = K.lo; k < K.hi; ++k) {
    for (std::uint64_t i = I.lo; i < I.hi; ++i) {
      for (std::uint64_t j = J.lo; j < J.hi; ++j) {
        if (!Inst::in_sigma(i, j, k)) continue;
        x.store(i, j, Inst::f(x.load(i, j), x.load(i, k), x.load(k, j),
                              x.load(k, k)));
      }
    }
  }
}

/// One child call of the recursion, identified by which half of each of the
/// three intervals it covers (a = X-row half, b = X-column half, c = K half).
struct Child {
  int a, b, c;
};

template <class Inst, class Exec, class Ref>
void gep_rec(Exec& ex, sched::MatView<Ref> x, Interval I, Interval J,
             Interval K, std::uint64_t base_cutoff,
             GepSchedule sched = GepSchedule::kD) {
  if (!Inst::intersects(I, J, K)) return;
  const std::uint64_t m = I.len();
  assert(J.len() == m && K.len() == m);
  if constexpr (gep_tile_kernel_v<Inst, Ref>) {
    // Native function-D tile (DESIGN §5f), from kNativeTileSide down: X =
    // x[I,J] shares no element with U = x[I,K] or V = x[K,J], so no store
    // changes an operand, and every element sees k ascending, as in the
    // recursion's rounds -- the same arithmetic bit for bit.
    if (m > 0 && m <= std::max(base_cutoff, sched::kNativeTileSide) &&
        disjoint(I, K) && disjoint(J, K) && simd::vector_active()) {
      Inst::tile_kernel(x.row(I.lo).raw() + J.lo, x.ld(),
                        x.row(I.lo).raw() + K.lo, x.ld(),
                        x.row(K.lo).raw() + J.lo, x.ld(), m, m, m);
      return;
    }
  }
  if (m <= base_cutoff) {
    gep_base<Inst>(x, I, J, K);
    return;
  }
  const Interval Ih[2] = {I.low_half(), I.high_half()};
  const Interval Jh[2] = {J.low_half(), J.high_half()};
  const Interval Kh[2] = {K.low_half(), K.high_half()};

  auto recurse = [&](Child ch) {
    gep_rec<Inst>(ex, x, Ih[ch.a], Jh[ch.b], Kh[ch.c], base_cutoff, sched);
  };
  auto space = [&](Child ch) {
    return gep_space(classify(Ih[ch.a], Jh[ch.b], Kh[ch.c]), m / 2);
  };
  auto seq = [&](Child ch) {
    ex.sb_seq(space(ch), [&] { recurse(ch); });
  };
  auto par = [&](auto... ch) {
    ex.sb_parallel({sched::SbTask{space(ch), [&] { recurse(ch); }}...});
  };

  switch (classify(I, J, K)) {
    case GepFn::kA:
      // Appendix, function A.
      seq({0, 0, 0});
      par(Child{0, 1, 0}, Child{1, 0, 0});
      seq({1, 1, 0});
      seq({1, 1, 1});
      par(Child{1, 0, 1}, Child{0, 1, 1});
      seq({0, 0, 1});
      break;
    case GepFn::kB:
      // Appendix, function B.
      par(Child{0, 0, 0}, Child{0, 1, 0});
      par(Child{1, 0, 0}, Child{1, 1, 0});
      par(Child{1, 0, 1}, Child{1, 1, 1});
      par(Child{0, 0, 1}, Child{0, 1, 1});
      break;
    case GepFn::kC:
      // Appendix, function C.
      par(Child{0, 0, 0}, Child{1, 0, 0});
      par(Child{0, 1, 0}, Child{1, 1, 0});
      par(Child{0, 1, 1}, Child{1, 1, 1});
      par(Child{0, 0, 1}, Child{1, 0, 1});
      break;
    case GepFn::kD:
      // Appendix, function D: two rounds of four parallel calls, in the
      // Table-I order selected by `sched` (D = k-major; D* = the
      // within-round permutation).
      if (sched == GepSchedule::kDstar) {
        par(Child{0, 0, 0}, Child{0, 1, 1}, Child{1, 0, 1}, Child{1, 1, 0});
        par(Child{0, 0, 1}, Child{0, 1, 0}, Child{1, 0, 0}, Child{1, 1, 1});
      } else {
        par(Child{0, 0, 0}, Child{0, 1, 0}, Child{1, 0, 0}, Child{1, 1, 0});
        par(Child{0, 0, 1}, Child{0, 1, 1}, Child{1, 0, 1}, Child{1, 1, 1});
      }
      break;
  }
}

/// The entry check of igep and mo_matmul: every view is n x n and n halves
/// evenly down to `base_cutoff` (workload::size_ok's rule), so the
/// recursion only ever splits a side into equal halves.  O(1), and it
/// throws Error(kInvalidArgument) before anything is written.
template <class... Views>
void check_side(const char* who, std::uint64_t n, std::uint64_t base_cutoff,
                const Views&... views) {
  if (((views.rows() != n || views.cols() != n) || ...)) {
    throw Error(ErrorCode::kInvalidArgument,
                std::string(who) + ": every matrix must be n x n");
  }
  if (!util::halves_down_to(n, base_cutoff)) {
    throw Error(ErrorCode::kInvalidArgument,
                std::string(who) + ": side " + std::to_string(n) +
                    " does not halve evenly down to base_cutoff " +
                    std::to_string(base_cutoff));
  }
}

}  // namespace detail

// Re-exported for modules that share the recursion taxonomy (no/ngep.hpp).
using detail::classify;
using detail::GepFn;

/// I-GEP: runs the instance's GEP computation on the n x n matrix viewed by
/// `x` under the SB scheduler.
/// `base_cutoff` is the constant tile side at which recursion bottoms out
/// (any constant preserves obliviousness and the asymptotic bounds);
/// native function-D tiles stop at sched::kNativeTileSide if that is larger.
/// Throws Error(kInvalidArgument) unless x is square and n halves evenly
/// down to base_cutoff.
template <class Inst, class Exec, class Ref>
void igep(Exec& ex, sched::MatView<Ref> x, std::uint64_t base_cutoff = 8,
          GepSchedule sched = GepSchedule::kD) {
  const std::uint64_t n = x.rows();
  detail::check_side("igep", n, base_cutoff, x);
  const Interval all{0, n};
  ex.sb_seq(n * n, [&] {
    detail::gep_rec<Inst>(ex, x, all, all, all, base_cutoff, sched);
  });
}

/// Reference: the Figure-5 triple loop, parallelized over rows with CGC (the
/// "classic GEP" baseline: Theta(n^3 / B_i) misses -- no sqrt(C_i) factor).
template <class Inst, class Exec, class Ref>
void gep_loop(Exec& ex, sched::MatView<Ref> x) {
  const std::uint64_t n = x.rows();
  for (std::uint64_t k = 0; k < n; ++k) {
    sched::cgc_pfor_each(ex, 0, n, n, [&](std::uint64_t i) {
      for (std::uint64_t j = 0; j < n; ++j) {
        if (!Inst::in_sigma(i, j, k)) continue;
        x.store(i, j, Inst::f(x.load(i, j), x.load(i, k), x.load(k, j),
                              x.load(k, k)));
      }
    });
  }
}

/// Strictly sequential Figure-5 loop on host memory (correctness oracle).
template <class Inst, class T>
void gep_reference(std::vector<T>& x, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) {
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t j = 0; j < n; ++j) {
        if (!Inst::in_sigma(i, j, k)) continue;
        x[i * n + j] =
            Inst::f(x[i * n + j], x[i * n + k], x[k * n + j], x[k * n + k]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Matrix multiplication as a direct invocation of I-GEP's function D.
// ---------------------------------------------------------------------------

namespace detail {

template <class Exec, class Ref>
void matmul_rec(Exec& ex, sched::MatView<Ref> c, sched::MatView<Ref> a,
                sched::MatView<Ref> b, std::uint64_t base_cutoff) {
  const std::uint64_t m = c.rows();
  if constexpr (sched::is_direct_ref_v<Ref> &&
                std::is_same_v<typename Ref::value_type, double>) {
    // Native tile from kNativeTileSide down (DESIGN §5f).  vector_active(),
    // not use_kernels(): see gep_base -- the tile kernel only beats the
    // inlined triple loop when lanes are real.  c is disjoint from a and
    // b, the kernel's one precondition, and each c element sees k
    // ascending, as in the two rounds below: bitwise the recursion.
    if (m <= std::max(base_cutoff, sched::kNativeTileSide) &&
        simd::vector_active()) {
      if (m > 0) {
        simd::tile_matmul_f64(c.row(0).raw(), c.ld(), a.row(0).raw(), a.ld(),
                              b.row(0).raw(), b.ld(), m, m, m);
      }
      return;
    }
  }
  if (m <= base_cutoff) {
    for (std::uint64_t k = 0; k < m; ++k) {
      for (std::uint64_t i = 0; i < m; ++i) {
        for (std::uint64_t j = 0; j < m; ++j) {
          c.store(i, j, c.load(i, j) + a.load(i, k) * b.load(k, j));
        }
      }
    }
    return;
  }
  const std::uint64_t space = 4 * (m / 2) * (m / 2);
  auto round = [&](int kq) {
    auto quad = [&](int i, int j) {
      matmul_rec(ex, c.quad(i, j), a.quad(i, kq), b.quad(kq, j), base_cutoff);
    };
    ex.sb_parallel({{space, [&] { quad(0, 0); }},
                    {space, [&] { quad(0, 1); }},
                    {space, [&] { quad(1, 0); }},
                    {space, [&] { quad(1, 1); }}});
  };
  round(0);  // round 1: the four k=low-half products
  round(1);  // round 2: the four k=high-half products
}

}  // namespace detail

/// C += A * B by I-GEP function D (all matrices disjoint), under SB.
/// Same bounds as Theorem 5, and the same side rule as igep.
template <class Exec, class Ref>
void mo_matmul(Exec& ex, sched::MatView<Ref> c, sched::MatView<Ref> a,
               sched::MatView<Ref> b, std::uint64_t base_cutoff = 8) {
  const std::uint64_t n = c.rows();
  detail::check_side("mo_matmul", n, base_cutoff, c, a, b);
  ex.sb_seq(4 * n * n, [&] { detail::matmul_rec(ex, c, a, b, base_cutoff); });
}

}  // namespace obliv::algo
