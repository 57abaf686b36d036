// The paper's algorithm families as one table: their names, the SB space
// bound S(n) and the sizes each algorithm takes.  Dependency-free, so the
// serving layer can read it without pulling in the algorithms; the
// registry (workload/workloads.hpp) builds inputs and runs them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bits.hpp"

namespace obliv::workload {

/// The families.  serve::Family is this enum; the server accepts the first
/// seven.
enum class Kind : std::uint8_t {
  kScan,
  kSort,
  kFft,
  kTranspose,
  kGep,
  kListRank,
  kSpmdv,
  kMatmul,
};
inline constexpr std::size_t kKinds = 8;
inline constexpr std::array<Kind, kKinds> kAllKinds = {
    Kind::kScan, Kind::kSort,     Kind::kFft,   Kind::kTranspose,
    Kind::kGep,  Kind::kListRank, Kind::kSpmdv, Kind::kMatmul};

inline constexpr std::array<std::string_view, kKinds> kNames = {
    "scan", "sort", "fft", "transpose", "gep", "listrank", "spmdv", "matmul"};

constexpr std::string_view name(Kind k) {
  return kNames[static_cast<std::size_t>(k)];
}

/// Whether the family is served (every kind but kMatmul).
constexpr bool served(Kind k) { return k != Kind::kMatmul; }

/// The SB space bound S(n) in words.  `n` is the element count (scan,
/// sort, fft, listrank), the matrix side (transpose, gep, matmul) or the
/// row count (spmdv, whose matrix holds `nnz` entries).
constexpr std::uint64_t space_words(Kind k, std::uint64_t n,
                                    std::uint64_t nnz = 0) {
  switch (k) {
    case Kind::kScan: return 2 * n;
    case Kind::kSort: return 4 * n;
    case Kind::kFft: return 6 * n;  // 3n complex elements, 2 words each
    case Kind::kTranspose: return 3 * n * n;
    case Kind::kGep: return n * n;
    case Kind::kListRank: return 8 * n;  // the recursion's scratch dominates
    case Kind::kSpmdv: return 4 * n + 2 * nnz;
    case Kind::kMatmul: return 4 * n * n;
  }
  return 0;
}

/// Whether the family's algorithm takes size `n`:
///   * the FFT length and the transpose side are powers of two (or zero);
///   * the gep and matmul sides halve evenly down to their 8 x 8 base case
///     (the default base_cutoff of igep and mo_matmul, which reject any
///     other side with the same rule);
///   * a matrix or grid side stays below 2^32, so n * n fits 64 bits.
constexpr bool size_ok(Kind k, std::uint64_t n) {
  const bool side = k == Kind::kTranspose || k == Kind::kGep ||
                    k == Kind::kSpmdv || k == Kind::kMatmul;
  if (side && n >> 32 != 0) return false;
  switch (k) {
    case Kind::kFft:
    case Kind::kTranspose: return n == 0 || util::is_pow2(n);
    case Kind::kGep:
    case Kind::kMatmul: return util::halves_down_to(n, 8);
    default: return true;
  }
}

/// size_ok's rule for `k`, in words, for error messages.
constexpr std::string_view size_rule(Kind k) {
  switch (k) {
    case Kind::kFft: return "zero or a power of two";
    case Kind::kTranspose: return "zero or a power of two below 2^32";
    case Kind::kGep:
    case Kind::kMatmul:
      return "a side below 2^32 that halves evenly down to at most 8";
    case Kind::kSpmdv: return "a side below 2^32";
    default: return "any size";
  }
}

}  // namespace obliv::workload
