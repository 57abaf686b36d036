// SPMS-structure sorting (paper, Section III-C and Theorem 3).
//
// The paper schedules SPMS (Sample-Partition-Merge Sort of Cole &
// Ramachandran [15]) with the same hint pattern as MO-FFT: an original
// problem of size n is decomposed by a constant number of CGC-scheduled
// "BP" computations (prefix sums, gathers, scatters) into ~sqrt(n)
// independent subproblems, and solved by two rounds of CGC=>SB recursion on
// subproblems of size ~sqrt(n).
//
// We implement that exact structure:
//   round 1 [CGC=>SB]: sort ceil(n/c) chunks of size c = ceil(sqrt(n));
//   BP [CGC]: regular sampling (a constant number of samples per chunk),
//             one recursive sort of the Theta(sqrt n) sample, splitter
//             selection, per-chunk merge-scan bucket counting, a prefix-sum
//             over the count matrix, and a scatter;
//   round 2 [CGC=>SB]: sort each bucket.
//
// Substitution note (DESIGN.md): true SPMS guarantees Theta(sqrt n) buckets
// deterministically via a more intricate sample-merge step ([15] was
// unpublished at the paper's writing).  Regular sampling does not: the
// model path takes every chunk's samples at the same quantiles, which
// cluster on i.i.d. keys (at n = 2^19, 14 of 724 buckets hold 72% of the
// keys), and the native path staggers them.  Correctness is unconditional
// (oversized buckets simply recurse further).
//
// Native serial leaf (DESIGN.md §5f): on direct-memory refs, a subproblem of
// at most sched::kNativeLeafWords words is sorted serially, with no
// scheduler construct and no allocation: u64 keys by an LSD radix sort,
// every other type by std::sort.  Output contract: every sort returns the
// unique sorted permutation when elements that compare equivalent are
// bitwise equal, so the leaf and the recursion agree bit for bit.  Every
// in-repo key meets it (u64 keys and arcs, records ordered by a unique
// (key, src) or a unique key); -0.0 vs +0.0 doubles would not.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/scan.hpp"
#include "sched/hints.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

namespace detail {

constexpr std::uint64_t kSortBase = 64;
constexpr std::uint64_t kSamplesPerChunk = 4;

/// Native refs over trivially-copyable keys may bulk-copy a merge's
/// remainder.
template <class Ref>
inline constexpr bool sort_kernel_v =
    sched::is_direct_ref_v<Ref> &&
    std::is_trivially_copyable_v<typename Ref::value_type>;

/// Constant-size base case: load, sort locally, store.
template <class Exec, class Ref>
void sort_base(Exec& ex, Ref v) {
  using T = typename Ref::value_type;
  const std::uint64_t n = v.size();
  assert(n <= kSortBase);
  T local[kSortBase];
  // Batched runs: the loads (and the stores) are back-to-back accesses to
  // consecutive elements, the exact shape load_run/store_run collapse.
  v.load_run(0, n, local);
  std::sort(local, local + n);
  ex.tick(n * (util::ilog2(n | 1) + 1));
  v.store_run(0, n, local);
}

/// The native u64 leaf: LSD radix sort of n <= kNativeLeafWords keys in
/// place, 8-bit digits from the least significant up.  A digit that is the
/// same in every key is skipped (its pass would move nothing), so keys
/// drawn from a narrow range take few passes.  Scratch is one stack array
/// of kNativeLeafWords words.  Up to kSortBase keys, where the 256-bucket
/// tables cost more than the passes save, it is std::sort.  Sorted u64
/// keys are one sequence of values, so either returns the same bits.
inline void radix_sort_leaf(std::uint64_t* a, std::uint64_t n) {
  assert(n <= sched::kNativeLeafWords);
  if (n <= kSortBase) {
    std::sort(a, a + n);
    return;
  }
  std::uint32_t count[8][256] = {};
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t x = a[i];
    for (int d = 0; d < 8; ++d) ++count[d][(x >> (8 * d)) & 0xff];
  }
  std::uint64_t scratch[sched::kNativeLeafWords];
  std::uint64_t* src = a;
  std::uint64_t* dst = scratch;
  for (int d = 0; d < 8; ++d) {
    std::uint32_t* c = count[d];
    if (c[(src[0] >> (8 * d)) & 0xff] == n) continue;
    std::uint32_t start = 0;
    for (int b = 0; b < 256; ++b) {
      const std::uint32_t len = c[b];
      c[b] = start;
      start += len;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t x = src[i];
      dst[c[(x >> (8 * d)) & 0xff]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != a) std::memcpy(a, src, n * sizeof(std::uint64_t));
}

}  // namespace detail

template <class Exec, class Ref>
void mergesort_baseline(Exec& ex, Ref v);

/// SPMS-structure multicore-oblivious sort (ascending, by operator<).
/// In-place on `v`.  Space bound: O(n) auxiliary (output + count matrix).
template <class Exec, class Ref>
void spms_sort(Exec& ex, Ref v) {
  using T = typename Ref::value_type;
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  const std::uint64_t n = v.size();
  bool native = false;
  if constexpr (sched::is_direct_ref_v<Ref>) {
    native = simd::use_kernels();
    // Native serial leaf: the whole subproblem in one serial sort.  It
    // gives the recursion's output whenever equivalent keys are bitwise
    // equal (see the header comment), and so does returning an in-order
    // subproblem as it is -- e.g. a bucket of equal keys.  On unsorted
    // input the check stops at the first descent.
    if (native && n * W <= sched::kNativeLeafWords) {
      if constexpr (std::is_same_v<T, std::uint64_t>) {
        detail::radix_sort_leaf(v.raw(), n);
      } else {
        std::sort(v.raw(), v.raw() + n);
      }
      return;
    }
    if (native && std::is_sorted(v.raw(), v.raw() + n)) return;
  }
  if (n <= detail::kSortBase) {
    detail::sort_base(ex, v);
    return;
  }

  // Chunk geometry: k chunks of size c ~ sqrt(n).
  const std::uint64_t c = static_cast<std::uint64_t>(std::max<double>(
      2.0, std::ceil(std::sqrt(static_cast<double>(n)))));
  const std::uint64_t k = util::ceil_div(n, c);
  auto chunk_lo = [&](std::uint64_t i) { return i * c; };
  auto chunk_len = [&](std::uint64_t i) {
    return std::min(c, n - i * c);
  };

  // ---- Round 1 [CGC=>SB]: sort each chunk recursively. ----
  ex.cgc_sb_pfor(k, 2 * c * W, [&](std::uint64_t i) {
    spms_sort(ex, v.slice(chunk_lo(i), chunk_len(i)));
  });

  // ---- BP step A [CGC]: regular sampling, constant samples per chunk. ----
  const std::uint64_t spc =
      std::min<std::uint64_t>(detail::kSamplesPerChunk, c);
  const std::uint64_t m = k * spc;
  auto sample_buf = ex.template make_buf<T>(m);
  auto samples = sample_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, W, [&](std::uint64_t s) {
    const std::uint64_t i = s / spc, j = s % spc;
    const std::uint64_t len = chunk_len(i);
    // Evenly spaced positions within the sorted chunk: quantile
    // (j + 1/2) / spc in every chunk.  Those stack, so on i.i.d. keys the
    // splitters cluster and a few buckets hold most keys.  Natively the
    // positions are staggered across chunks, quantile (j k + i) / (spc k),
    // so the k spc samples cover spc k distinct quantiles.
    const std::uint64_t pos = native ? ((j * k + i) * len) / (spc * k)
                                     : (j * len + len / 2) / spc;
    samples.store(s, v.load(chunk_lo(i) + std::min(pos, len - 1)));
  });

  // ---- Recursive sample sort (size Theta(sqrt n)). ----
  spms_sort(ex, samples);

  // ---- BP step B [CGC]: splitters = every (m/k)-th sample. ----
  const std::uint64_t nbuckets = k;
  auto splitter_buf = ex.template make_buf<T>(nbuckets - 1);
  auto splitters = splitter_buf.ref();
  sched::cgc_pfor_each(ex, 0, nbuckets - 1, W, [&](std::uint64_t b) {
    splitters.store(b, samples.load(((b + 1) * m) / nbuckets));
  });

  // ---- BP step C [CGC]: per-chunk merge-scan bucket counting. ----
  auto counts_buf = ex.template make_buf<std::uint64_t>(k * nbuckets);
  auto counts = counts_buf.ref();
  ex.cgc_pfor(0, k * nbuckets, 1,
              [&](std::uint64_t lo, std::uint64_t hi) {
                for (std::uint64_t z = lo; z < hi; ++z) counts.store(z, 0);
              });
  sched::cgc_pfor_each(ex, 0, k, c * W, [&](std::uint64_t i) {
    std::uint64_t b = 0;
    std::uint64_t run = 0;
    T next_split = b + 1 < nbuckets ? splitters.load(b) : T{};
    const std::uint64_t len = chunk_len(i);
    for (std::uint64_t t = 0; t < len; ++t) {
      const T e = v.load(chunk_lo(i) + t);
      while (b + 1 < nbuckets && !(e < next_split)) {
        counts.update(i * nbuckets + b, [&](std::uint64_t& x) { x += run; });
        run = 0;
        ++b;
        if (b + 1 < nbuckets) next_split = splitters.load(b);
      }
      ++run;
    }
    counts.update(i * nbuckets + b, [&](std::uint64_t& x) { x += run; });
  });

  // ---- BP step D [CGC]: bucket-major offsets via prefix sum. ----
  auto flat_buf = ex.template make_buf<std::uint64_t>(k * nbuckets);
  auto flat = flat_buf.ref();
  ex.cgc_pfor(0, k * nbuckets, 1, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t z = lo; z < hi; ++z) {
      const std::uint64_t b = z / k, i = z % k;
      flat.store(z, counts.load(i * nbuckets + b));
    }
  });
  mo_prefix_sum(ex, flat);  // inclusive; start(b,i) = flat[b*k+i] - count

  // ---- BP step E [CGC]: scatter chunks into bucketed output. ----
  auto out_buf = ex.template make_buf<T>(n);
  auto out = out_buf.ref();
  sched::cgc_pfor_each(ex, 0, k, c * W, [&](std::uint64_t i) {
    std::uint64_t b = 0;
    T next_split = b + 1 < nbuckets ? splitters.load(b) : T{};
    const std::uint64_t len = chunk_len(i);
    std::uint64_t pos = 0;  // running output cursor within current bucket
    bool pos_valid = false;
    for (std::uint64_t t = 0; t < len; ++t) {
      const T e = v.load(chunk_lo(i) + t);
      while (b + 1 < nbuckets && !(e < next_split)) {
        ++b;
        pos_valid = false;
        if (b + 1 < nbuckets) next_split = splitters.load(b);
      }
      if (!pos_valid) {
        const std::uint64_t z = b * k + i;
        pos = flat.load(z) - counts.load(i * nbuckets + b);
        pos_valid = true;
      }
      out.store(pos++, e);
    }
  });

  // ---- Round 2 [CGC=>SB]: sort each bucket. ----
  // Bucket b occupies [flat[b*k + k-1] - size_b, flat[b*k + k-1]).
  // Space bound: pass the observed max bucket so the scheduler anchors
  // correctly whatever the bucket sizes.
  std::vector<std::uint64_t> bucket_hi(nbuckets), bucket_lo(nbuckets);
  {
    std::uint64_t prev = 0;
    for (std::uint64_t b = 0; b < nbuckets; ++b) {
      const std::uint64_t hi = flat.load(b * k + (k - 1));
      bucket_lo[b] = prev;
      bucket_hi[b] = hi;
      prev = hi;
    }
  }
  std::uint64_t max_bucket = 1;
  for (std::uint64_t b = 0; b < nbuckets; ++b) {
    max_bucket = std::max(max_bucket, bucket_hi[b] - bucket_lo[b]);
  }
  ex.cgc_sb_pfor(nbuckets, 2 * max_bucket * W, [&](std::uint64_t b) {
    const std::uint64_t lo = bucket_lo[b], hi = bucket_hi[b];
    if (hi <= lo) return;
    if (hi - lo == n) {
      // Degenerate splitters (heavy key duplication) put everything in one
      // bucket; recursing would not shrink the problem.  The data is a
      // concatenation of sorted chunks -- merge them instead.
      mergesort_baseline(ex, out.slice(lo, hi - lo));
    } else {
      spms_sort(ex, out.slice(lo, hi - lo));
    }
  });

  // ---- Copy back [CGC]. ----
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    ex.copy(v.slice(lo, hi - lo), out.slice(lo, hi - lo));
  });
}

// ---------------------------------------------------------------------------
// Baseline: binary mergesort under SB (optimal work, Theta((n/B) log(n/C))
// misses -- log base 2 instead of base C -- and a sequential final merge).
// ---------------------------------------------------------------------------

namespace detail {

template <class Exec, class Ref>
void merge_into(Exec& ex, Ref a, Ref b, Ref out) {
  using T = typename Ref::value_type;
  std::uint64_t i = 0, j = 0, o = 0;
  const std::uint64_t na = a.size(), nb = b.size();
  while (i < na && j < nb) {
    const T x = a.load(i), y = b.load(j);
    if (y < x) {
      out.store(o++, y);
      ++j;
    } else {
      out.store(o++, x);
      ++i;
    }
  }
  if constexpr (sort_kernel_v<Ref>) {
    if (simd::use_kernels()) {
      // Bulk-drain the exhausted side's remainder.
      if (i < na) simd::copy_elems(a.raw() + i, out.raw() + o, na - i);
      if (j < nb) simd::copy_elems(b.raw() + j, out.raw() + o, nb - j);
      (void)ex;
      return;
    }
  }
  while (i < na) out.store(o++, a.load(i++));
  while (j < nb) out.store(o++, b.load(j++));
  (void)ex;
}

template <class Exec, class Ref>
void mergesort_rec(Exec& ex, Ref v, Ref tmp) {
  using T = typename Ref::value_type;
  constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  const std::uint64_t n = v.size();
  if (n <= kSortBase) {
    sort_base(ex, v);
    return;
  }
  const std::uint64_t half = n / 2;
  auto v0 = v.slice(0, half), v1 = v.slice(half, n - half);
  auto t0 = tmp.slice(0, half), t1 = tmp.slice(half, n - half);
  ex.sb_parallel({{2 * half * W, [&] { mergesort_rec(ex, v0, t0); }},
                  {2 * (n - half) * W, [&] { mergesort_rec(ex, v1, t1); }}});
  merge_into(ex, v0, v1, tmp);
  ex.cgc_pfor(0, n, W, [&](std::uint64_t lo, std::uint64_t hi) {
    ex.copy(v.slice(lo, hi - lo), tmp.slice(lo, hi - lo));
  });
}

}  // namespace detail

/// Binary mergesort baseline (for bench_table2's Theorem 3 rows).
template <class Exec, class Ref>
void mergesort_baseline(Exec& ex, Ref v) {
  using T = typename Ref::value_type;
  auto tmp = ex.template make_buf<T>(v.size());
  detail::mergesort_rec(ex, v, tmp.ref());
}

}  // namespace obliv::algo
