// MO-SpM-DV: multicore-oblivious sparse-matrix dense-vector multiplication
// (paper, Figure 4 and Theorem 4).
//
// The matrix is stored in the paper's row-major pair representation:
// A_v is the list of <column, value> pairs in lexicographic <row, column>
// order, and A_0[i] is the offset of row i in A_v (A_0[n] = nnz).
//
// The algorithm recursively halves the row range [k1, k2]; each half is a
// CGC=>SB subtask with space bound S(m) = 4m (its slice of y, A_0, a
// proportional slice of A_v and the x window).  Theorem 4: if A satisfies an
// n^eps-edge separator theorem and is reordered by its separator tree, the
// level-i misses are O((n/q_i)(1/B_i + 1/C_i^(1-eps))) -- i.e. nearly a
// scan, because out-of-window reads of x are bounded by the separator size.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sched/hints.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

/// One stored nonzero: column index and value (the <j, a> pairs of Fig 4).
struct SpmEntry {
  std::uint64_t col;
  double val;
};

/// Host-side sparse matrix in the paper's (A_v, A_0) representation.
struct SparseMatrix {
  std::uint64_t n = 0;
  std::vector<SpmEntry> av;       // nnz entries, row-major
  std::vector<std::uint64_t> a0;  // n + 1 offsets

  std::uint64_t nnz() const { return av.size(); }

  /// Structural sanity: offsets monotone, columns in range and sorted
  /// within each row.
  bool valid() const {
    if (a0.size() != n + 1 || a0[0] != 0 || a0[n] != av.size()) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (a0[i] > a0[i + 1]) return false;
      for (std::uint64_t t = a0[i]; t < a0[i + 1]; ++t) {
        if (av[t].col >= n) return false;
        if (t > a0[i] && av[t - 1].col >= av[t].col) return false;
      }
    }
    return true;
  }
};

namespace detail {

/// Native refs: plain memory over the SpmEntry / offset / double layouts.
template <class EntryRef, class OffRef, class VecRef>
inline constexpr bool spmdv_native_v =
    sched::is_direct_ref_v<EntryRef> && sched::is_direct_ref_v<OffRef> &&
    sched::is_direct_ref_v<VecRef> &&
    std::is_same_v<typename EntryRef::value_type, SpmEntry> &&
    std::is_same_v<typename OffRef::value_type, std::uint64_t> &&
    std::is_same_v<typename VecRef::value_type, double>;

static_assert(sizeof(SpmEntry) == 16, "strided dot assumes 2-word entries");

/// Native row: the serial loop of spmdv_rec, or the strided dot kernel
/// from two lane strides of nonzeros (shorter rows -- separator-reordered
/// grid rows average ~4 nonzeros -- are cheaper inline).  The kernel's
/// 4-accumulator order differs from the serial loop, so a long row is
/// bit-identical across kAuto/kScalar (the size rule is mode-independent)
/// but only close to the kGeneric path; a short row equals it bit for bit.
inline void spmdv_row(const SpmEntry* av, const std::uint64_t* a0,
                      const double* x, double* y, std::uint64_t i) {
  const std::uint64_t lo = a0[i], hi = a0[i + 1];
  if (hi - lo >= 2 * simd::kMaxLaneWords) {
    y[i] = simd::dot_strided_f64(&av[lo].col, &av[lo].val, 2, x, hi - lo);
    return;
  }
  double acc = 0;
  for (std::uint64_t t = lo; t < hi; ++t) acc += av[t].val * x[av[t].col];
  y[i] = acc;
}

template <class Exec, class EntryRef, class OffRef, class VecRef>
void spmdv_rec(Exec& ex, EntryRef av, OffRef a0, VecRef x, VecRef y,
               std::uint64_t k1, std::uint64_t k2) {
  if constexpr (spmdv_native_v<EntryRef, OffRef, VecRef>) {
    // Native row-block leaf (DESIGN.md §5f): a range whose 2 nnz + 2 rows
    // words fit in kNativeLeafWords runs row by row, each row exactly as
    // the recursion's single-row leaf would.
    const std::uint64_t* off = a0.raw();
    if (simd::use_kernels() &&
        (k1 == k2 || 2 * (off[k2 + 1] - off[k1]) + 2 * (k2 - k1 + 1) <=
                         sched::kNativeLeafWords)) {
      for (std::uint64_t i = k1; i <= k2; ++i) {
        spmdv_row(av.raw(), off, x.raw(), y.raw(), i);
      }
      return;
    }
  }
  if (k1 == k2) {
    // Lines 1-3 of Figure 4: one dot product.
    const std::uint64_t lo = a0.load(k1), hi = a0.load(k1 + 1);
    double acc = 0;
    for (std::uint64_t t = lo; t < hi; ++t) {
      const SpmEntry e = av.load(t);
      acc += e.val * x.load(e.col);
      ex.tick(2);
    }
    y.store(k1, acc);
    return;
  }
  // Line 6 [CGC=>SB]: two parallel recursive calls, space bound S(m) = 4m.
  const std::uint64_t k = (k1 + k2) / 2;
  const std::uint64_t m_half = (k2 - k1 + 1 + 1) / 2;
  ex.cgc_sb_pfor(2, 4 * m_half, [&](std::uint64_t which) {
    if (which == 0) {
      spmdv_rec(ex, av, a0, x, y, k1, k);
    } else {
      spmdv_rec(ex, av, a0, x, y, k + 1, k2);
    }
  });
}

}  // namespace detail

/// y = A x via MO-SpM-DV.  `av`, `a0`, `x`, `y` are refs with the layouts of
/// SparseMatrix; n = y.size() rows.
template <class Exec, class EntryRef, class OffRef, class VecRef>
void mo_spmdv(Exec& ex, EntryRef av, OffRef a0, VecRef x, VecRef y) {
  const std::uint64_t n = y.size();
  if (n == 0) return;
  ex.sb_seq(4 * n, [&] { detail::spmdv_rec(ex, av, a0, x, y, 0, n - 1); });
}

/// Baseline: flat CGC row loop, no recursive space-bound anchoring (every
/// row is an L1-anchored segment regardless of locality structure).
template <class Exec, class EntryRef, class OffRef, class VecRef>
void spmdv_flat(Exec& ex, EntryRef av, OffRef a0, VecRef x, VecRef y) {
  const std::uint64_t n = y.size();
  const std::uint64_t avg = n ? (av.size() + n - 1) / n : 1;
  sched::cgc_pfor_each(ex, 0, n, 2 * avg + 2, [&](std::uint64_t i) {
    double acc = 0;
    const std::uint64_t lo = a0.load(i), hi = a0.load(i + 1);
    for (std::uint64_t t = lo; t < hi; ++t) {
      const SpmEntry e = av.load(t);
      acc += e.val * x.load(e.col);
      ex.tick(2);
    }
    y.store(i, acc);
  });
}

/// Host reference.
inline std::vector<double> spmdv_reference(const SparseMatrix& a,
                                           const std::vector<double>& x) {
  std::vector<double> y(a.n, 0.0);
  for (std::uint64_t i = 0; i < a.n; ++i) {
    for (std::uint64_t t = a.a0[i]; t < a.a0[i + 1]; ++t) {
      y[i] += a.av[t].val * x[a.av[t].col];
    }
  }
  return y;
}

}  // namespace obliv::algo
