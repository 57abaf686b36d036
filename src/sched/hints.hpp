// Scheduler-hint vocabulary of Section III.
//
// An MO algorithm names no machine parameters, but annotates its parallel
// constructs with one of three hints that the run-time scheduler interprets:
//
//   * CGC      -- coarse-grained contiguous: a parallel for loop over a
//                 contiguous index range is split into contiguous,
//                 B_1-boundary-respecting segments, one per core under the
//                 shadow of the current anchor (Section III-A).
//   * SB       -- space-bound: a recursively forked task carries an upper
//                 bound on the space it touches; the scheduler anchors it at
//                 the smallest cache that fits it under the parent's shadow
//                 (Section III-B).
//   * CGC=>SB  -- m equal-space subtasks are spread evenly across the caches
//                 of level t = max(i, j), where i is the smallest level whose
//                 caches fit one subtask and j the smallest level with at
//                 most m caches under the shadow (Section III-C).
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/fn_ref.hpp"

namespace obliv::sched {

/// Marker trait: true only for Ref types that are plain views of host
/// memory, i.e. where bypassing load()/store() with a raw-pointer kernel
/// changes nothing observable.  NatRef opts in with a
/// `static constexpr bool kDirectMemory = true` member.  SimRef and NoRef
/// also expose raw() (for test plumbing), but every element access there
/// *is* the model -- cache-miss counters and D-BSP message accounting --
/// so they must never match.  Duck-typing on raw() would be a correctness
/// bug, hence the explicit opt-in.
template <class Ref, class = void>
struct is_direct_ref : std::false_type {};
template <class Ref>
struct is_direct_ref<Ref, std::enable_if_t<Ref::kDirectMemory>>
    : std::true_type {};
template <class Ref>
inline constexpr bool is_direct_ref_v = is_direct_ref<Ref>::value;

/// Native leaf size in 8-byte words (16 KiB, half a 32 KiB L1D), shared
/// by seven families on their direct-memory instantiations.  Below it, the
/// recursion-bound ones (SPMS sort, MO-FFT, and MO-SpM-DV over row ranges)
/// solve the whole subproblem serially on raw pointers: no scheduler
/// construct and at most one allocation.  The CGC ones work in leaves of
/// this size: the prefix scan in blocks of this many elements, MO-MT in
/// the largest power-of-two tiles of which a source and a destination
/// fit.  Matmul and I-GEP's function D stop at kNativeTileSide below.
/// SimRef and NoRef never take a leaf, so no model counter depends on it
/// (DESIGN §5f).
inline constexpr std::uint64_t kNativeLeafWords = 2048;

/// Side of the native dense tiles of mo_matmul and I-GEP's function D: the
/// largest power of two m with three m x m double tiles (X, U and V) in
/// kNativeLeafWords words -- 16.
inline constexpr std::uint64_t kNativeTileSide = [] {
  std::uint64_t m = 1;
  while (3 * (2 * m) * (2 * m) <= kNativeLeafWords) m *= 2;
  return m;
}();

enum class Hint : std::uint8_t {
  kCgc,      ///< coarse-grained contiguous
  kSb,       ///< space-bound
  kCgcSb,    ///< CGC on SB
};

/// A space-bound-annotated task: the algorithm promises the body touches at
/// most `space_words` words of distinct data (the S(n) lines in the paper's
/// pseudocode, e.g. S(n) = 3n for MO-FFT).  The body is borrowed: every
/// executor's `sb_parallel(std::initializer_list<SbTask>)` is the one SB
/// fork, and the lambdas in its braced list live until it returns.
struct SbTask {
  std::uint64_t space_words;
  util::FnRef<void()> body;
};

/// Per-index CGC loop on any executor: `body(k)` for k in [lo, hi), handed
/// to `ex.cgc_pfor` as one range body so the per-index call inlines.
template <class Exec, class F>
void cgc_pfor_each(Exec& ex, std::uint64_t lo, std::uint64_t hi,
                   std::uint64_t words_per_iter, F&& body) {
  ex.cgc_pfor(lo, hi, words_per_iter,
              [&body](std::uint64_t a, std::uint64_t b) {
                for (std::uint64_t k = a; k < b; ++k) body(k);
              });
}

}  // namespace obliv::sched
