// CGC-scheduled scans (prefix sums) -- Section III-A.
//
// The paper states that scans on an input of size n can be scheduled with
// CGC in O(B_1 log n) parallel steps with Theta(n/(q_i B_i)) level-i cache
// misses (Table II row "Prefix sum").  We implement the classic recursive
// pairwise-contraction scan: each level is one CGC pfor over a geometrically
// shrinking array, so the span telescopes to O((n/p) + B_1 log n) and misses
// to a constant number of scans of n words.
//
// The algorithm is multicore-oblivious: it names no machine parameters;
// chunking is done by the CGC scheduler.
//
// Native block leaf (DESIGN.md §5f): on direct-memory refs, an addition
// scan over one-word elements runs detail::scan_leaf instead of the
// per-level recursion.  It forms every sum of the recursion's association
// tree, block by block in L1: about three passes over n and only
// scan_leaf_words(n) scratch, bit-identical to the recursion.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "fault/status.hpp"
#include "sched/hints.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

/// Tag type for addition, in place of an opaque `a + b` lambda.  Scans and
/// reductions recognize it (is_add_op_v) and replace their native leaf
/// loops with the simd:: pair-sum / expand kernels; any other Op keeps the
/// generic element loop.  Semantically identical to the lambda it replaces.
template <class T>
struct AddOp {
  constexpr T operator()(const T& a, const T& b) const { return a + b; }
};

namespace detail {

template <class Op>
struct is_add_op : std::false_type {};
template <class T>
struct is_add_op<AddOp<T>> : std::true_type {};

/// Native leaves may vectorize iff the ref is plain memory AND the op is
/// the recognized addition tag AND the element type has a kernel.
template <class Ref, class Op>
inline constexpr bool scan_kernel_v =
    sched::is_direct_ref_v<Ref> && is_add_op<Op>::value &&
    (std::is_same_v<typename Ref::value_type, double> ||
     std::is_same_v<typename Ref::value_type, std::uint64_t> ||
     std::is_same_v<typename Ref::value_type, std::int64_t>);

/// Element type the scan kernels compute in.  int64 runs through the u64
/// kernels: two's-complement addition gives the signed sum's bits wherever
/// that sum is defined, and wraps (defined) where it would overflow.
template <class T>
using scan_lane_t =
    std::conditional_t<std::is_same_v<T, std::int64_t>, std::uint64_t, T>;

template <class T>
scan_lane_t<T>* scan_lanes(T* p) {
  return reinterpret_cast<scan_lane_t<T>*>(p);
}

inline void pair_sum_kernel(const double* s, double* d, std::size_t n) {
  simd::pair_sum_f64(s, d, n);
}
inline void pair_sum_kernel(const std::uint64_t* s, std::uint64_t* d,
                            std::size_t n) {
  simd::pair_sum_u64(s, d, n);
}
inline void scan_expand_kernel(const double* t, double* v, std::size_t lo,
                               std::size_t hi) {
  simd::scan_expand_f64(t, v, lo, hi);
}
inline void scan_expand_kernel(const std::uint64_t* t, std::uint64_t* v,
                               std::size_t lo, std::size_t hi) {
  simd::scan_expand_u64(t, v, lo, hi);
}

/// Elements per native scan block: kNativeLeafWords, as every kernel
/// element type is one word.
inline constexpr std::uint64_t kScanBlock = sched::kNativeLeafWords;

/// The recursion's scan of v[0, m), serially on raw memory: contract into
/// `t` (m - 1 elements suffice), scan the pair sums, expand.  `carry` and
/// `top` place the range inside a longer scan (see scan_leaf):
///   * `carry`, when set, is the prefix before v[0] -- the t[i-1] operand
///     of each level's first pair and the v[n-2] operand of a level that
///     holds a single element;
///   * `top`, when set, is the scanned value of the range's root (m is
///     then a power of two and the root level has one element).
template <class K>
void scan_tree(K* v, std::uint64_t m, K* t,
               const std::type_identity_t<K>* carry,
               const std::type_identity_t<K>* top) {
  if (m == 0) return;
  if (m == 1) {
    if (top != nullptr) {
      v[0] = *top;
    } else if (carry != nullptr) {
      v[0] = *carry + v[0];
    }
    return;
  }
  const std::uint64_t half = m / 2;
  pair_sum_kernel(v, t, half);
  scan_tree(t, half, t + half, carry, top);
  if (carry != nullptr) v[0] = *carry + v[0];
  v[1] = t[0];
  scan_expand_kernel(t, v, 1, half);
  if (m % 2 == 1) v[m - 1] = v[m - 2] + v[m - 1];
}

/// Sum of the kScanBlock elements at v under the recursion's pairwise
/// tree -- element b of its level-log2(kScanBlock) array for block b.
/// `t` holds kScanBlock - 1 elements.
template <class K>
K block_sum(const K* v, K* t) {
  pair_sum_kernel(v, t, kScanBlock / 2);
  for (std::uint64_t m = kScanBlock / 2; m > 1; t += m, m /= 2) {
    pair_sum_kernel(t, t + m, m / 2);
  }
  return *t;
}

/// Scratch words scan_leaf needs for n elements: the q = floor(n /
/// kScanBlock) block sums, then what their own scan needs.
inline std::uint64_t scan_leaf_words(std::uint64_t n) {
  std::uint64_t words = 0;
  for (; n > kScanBlock; n /= kScanBlock) words += n / kScanBlock;
  return words;
}

/// Native block leaf: the recursion's inclusive addition scan of v[0, n),
/// with scan_leaf_words(n) elements of `sums` scratch.  Level
/// log2(kScanBlock) of the recursion holds one sum per aligned block, which
/// depends on that block alone, and the recursion scans that level as an
/// array of its own.  So:
///   (1) [CGC] fold each of the q full blocks to its sum;
///   (2) scan the q sums with this routine, giving the level's prefixes P_b;
///   (3) [CGC] re-derive each block's tree with P_b as its root and P_{b-1}
///       as the carry -- the value the recursion copies down the last pair
///       of block b-1 on every level;
///   (4) scan the n mod kScanBlock tail with P_{q-1} as the carry.
template <class Exec, class K>
void scan_leaf(Exec& ex, K* v, std::uint64_t n, K* sums) {
  if (n <= kScanBlock) {
    K t[kScanBlock];
    scan_tree(v, n, t, nullptr, nullptr);
    return;
  }
  const std::uint64_t q = n / kScanBlock;
  ex.cgc_pfor(0, q, kScanBlock, [&](std::uint64_t lo, std::uint64_t hi) {
    K t[kScanBlock];
    for (std::uint64_t b = lo; b < hi; ++b) {
      sums[b] = block_sum(v + b * kScanBlock, t);
    }
  });
  scan_leaf(ex, sums, q, sums + q);
  ex.cgc_pfor(0, q, kScanBlock, [&](std::uint64_t lo, std::uint64_t hi) {
    K t[kScanBlock];
    for (std::uint64_t b = lo; b < hi; ++b) {
      scan_tree(v + b * kScanBlock, kScanBlock, t,
                b > 0 ? sums + b - 1 : nullptr, sums + b);
    }
  });
  K t[kScanBlock];
  scan_tree(v + q * kScanBlock, n - q * kScanBlock, t, sums + q - 1, nullptr);
}

}  // namespace detail

/// Scratch words mo_scan_inclusive needs for n elements: each level of
/// the contraction keeps its floor(n/2) pair sums while the next level
/// recurses on the rest, so the requirement is the sum of the halves,
/// floor(n/2) + floor(n/4) + ... down to a level of size 2 -- always less
/// than n (n - 2 for a power of two).
inline std::uint64_t scan_scratch_words(std::uint64_t n) {
  std::uint64_t words = 0;
  for (; n > 2; n /= 2) words += n / 2;
  return words;
}

namespace detail {

template <class Exec, class Ref, class Op>
void scan_inclusive_rec(Exec& ex, Ref v, Ref scratch, Op op) {
  using T = typename Ref::value_type;
  const std::uint64_t n = v.size();
  if (n <= 1) return;
  if (n == 2) {
    const T a = v.load(0);
    v.store(1, op(a, v.load(1)));
    return;
  }
  const std::uint64_t half = n / 2;

  // Contract: t[i] = v[2i] (+) v[2i+1].  The pair load is one batched
  // access -- the two per-element loads are back-to-back and contiguous,
  // so the collapsed B_1-block stream (hence every counter) is unchanged.
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t i = lo; i < hi; ++i) {
                  const auto [a, b] = v.load2(2 * i);
                  scratch.store(i, op(a, b));
                }
              });

  scan_inclusive_rec(ex, scratch.slice(0, half),
                     scratch.slice(half, scratch.size() - half), op);

  // Expand: v[2i] = t[i-1] (+) v[2i], v[2i+1] = t[i].  Kept per-element:
  // batching this loop would reorder accesses across the t and v streams,
  // and on deep hierarchies the leftover recency shuffle at chunk
  // boundaries shifts later eviction victims -- the golden-counter test
  // catches it.  Only order-preserving merges are exact (DESIGN.md).
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t i = lo; i < hi; ++i) {
                  if (i > 0) {
                    v.store(2 * i, op(scratch.load(i - 1), v.load(2 * i)));
                  }
                  v.store(2 * i + 1, scratch.load(i));
                }
              });
  if (n % 2 == 1) {
    v.store(n - 1, op(v.load(n - 2), v.load(n - 1)));
  }
}

}  // namespace detail

/// In-place inclusive scan of `v` under `op` (associative).  `scratch`
/// must hold at least scan_scratch_words(v.size()) elements (a v.size()
/// buffer always does); pass a ref into a buffer allocated from the same
/// executor.  A shorter scratch throws obliv::Error(kInvalidArgument)
/// before any access.  Recursion depth is O(log n); each level runs two
/// CGC pfors.  The native block leaf uses only the first
/// detail::scan_leaf_words(v.size()) elements of `scratch`.
template <class Exec, class Ref, class Op>
void mo_scan_inclusive(Exec& ex, Ref v, Ref scratch, Op op) {
  const std::uint64_t need = scan_scratch_words(v.size());
  if (scratch.size() < need) {
    throw Error(ErrorCode::kInvalidArgument,
                "mo_scan_inclusive: scratch holds " +
                    std::to_string(scratch.size()) + " elements, " +
                    std::to_string(v.size()) + " inputs need " +
                    std::to_string(need));
  }
  if constexpr (detail::scan_kernel_v<Ref, Op>) {
    if (simd::use_kernels()) {
      detail::scan_leaf(ex, detail::scan_lanes(v.raw()), v.size(),
                        detail::scan_lanes(scratch.raw()));
      return;
    }
  }
  detail::scan_inclusive_rec(ex, v, scratch, op);
}

/// Convenience wrapper that allocates scratch from the executor.
/// Space bound: 2n (input plus contraction tree).  The native block leaf
/// allocates only its block sums: detail::scan_leaf_words(n), about
/// n / 2048 elements.
template <class Exec, class Ref, class Op>
void mo_scan(Exec& ex, Ref v, Op op) {
  using T = typename Ref::value_type;
  if constexpr (detail::scan_kernel_v<Ref, Op>) {
    if (simd::use_kernels()) {
      auto sums = ex.template make_buf<T>(detail::scan_leaf_words(v.size()));
      detail::scan_leaf(ex, detail::scan_lanes(v.raw()), v.size(),
                        detail::scan_lanes(sums.ref().raw()));
      return;
    }
  }
  auto scratch = ex.template make_buf<T>(v.size());
  mo_scan_inclusive(ex, v, scratch.ref(), op);
}

/// Inclusive prefix sum specialization (AddOp engages the native block
/// leaf; every other backend sees the same `a + b`).
template <class Exec, class Ref>
void mo_prefix_sum(Exec& ex, Ref v) {
  using T = typename Ref::value_type;
  mo_scan(ex, v, AddOp<T>{});
}

/// Parallel reduction under `op`; returns the total.  One CGC pass per
/// contraction level.
template <class Exec, class Ref, class Op>
typename Ref::value_type mo_reduce(Exec& ex, Ref v, Op op) {
  using T = typename Ref::value_type;
  const std::uint64_t n = v.size();
  if (n == 0) return T{};
  if (n == 1) return v.load(0);
  auto scratch_buf = ex.template make_buf<T>((n + 1) / 2);
  auto scratch = scratch_buf.ref();
  const std::uint64_t half = n / 2;
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                if constexpr (detail::scan_kernel_v<Ref, Op>) {
                  if (simd::use_kernels()) {
                    detail::pair_sum_kernel(
                        detail::scan_lanes(v.raw()) + 2 * lo,
                        detail::scan_lanes(scratch.raw()) + lo, hi - lo);
                    return;
                  }
                }
                for (std::uint64_t i = lo; i < hi; ++i) {
                  const auto [a, b] = v.load2(2 * i);
                  scratch.store(i, op(a, b));
                }
              });
  if (n % 2 == 1) scratch.store(half, v.load(n - 1));
  return mo_reduce(ex, scratch.slice(0, (n + 1) / 2), op);
}

}  // namespace obliv::algo
