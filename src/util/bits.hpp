// Bit-manipulation helpers used throughout the library.
//
// The MO-MT matrix-transposition algorithm (paper, Fig. 2) relies on the
// bit-interleaved index map beta(i, j): the pair of indices is mapped to a
// single linear position by interleaving the binary representations of i and
// j.  The paper assumes beta and its inverse are computable in constant time
// by hardware; here we provide portable O(1)-word implementations based on
// the classic Morton-code spread/compact tricks.
#pragma once

#include <cstdint>
#include <cassert>
#include <bit>
#include <cstddef>
#include <utility>

namespace obliv::util {

/// Spreads the low 32 bits of `x` so that bit k of the input lands in bit 2k
/// of the output (zero bits interleaved between consecutive input bits).
constexpr std::uint64_t spread_bits(std::uint64_t x) noexcept {
  x &= 0xffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// Inverse of spread_bits: collects every other bit (bits 0,2,4,...) of `x`
/// into the low 32 bits of the result.
constexpr std::uint64_t compact_bits(std::uint64_t x) noexcept {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  x = (x | (x >> 16)) & 0x00000000ffffffffull;
  return x;
}

/// beta(i, j): bit-interleaved (Morton / Z-order) linear index of the pair
/// (i, j).  Bit k of `i` lands at bit 2k+1, bit k of `j` at bit 2k, so rows
/// are the "major" coordinate, matching the row-major dispersal argument in
/// the proof of Theorem 1.
constexpr std::uint64_t interleave_bits(std::uint64_t i, std::uint64_t j) noexcept {
  return (spread_bits(i) << 1) | spread_bits(j);
}

/// beta^{-1}: recovers the ordered pair (i, j) from a bit-interleaved index.
constexpr std::pair<std::uint64_t, std::uint64_t>
deinterleave_bits(std::uint64_t z) noexcept {
  return {compact_bits(z >> 1), compact_bits(z)};
}

/// True iff `x` is a (positive) power of two.
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); requires x > 0.
constexpr unsigned ilog2(std::uint64_t x) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(x | 1));
}

/// ceil(log2(x)); requires x > 0.  ceil_log2(1) == 0.
constexpr unsigned ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0u : ilog2(x - 1) + 1u;
}

/// Smallest power of two >= x.
constexpr std::uint64_t ceil_pow2(std::uint64_t x) noexcept {
  return x <= 1 ? 1 : (std::uint64_t{1} << ceil_log2(x));
}

/// Largest power of two <= x; requires x > 0.
constexpr std::uint64_t floor_pow2(std::uint64_t x) noexcept {
  return std::uint64_t{1} << ilog2(x);
}

/// Integer ceiling division.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Whether halving `n` while it exceeds `cutoff` always splits it evenly,
/// so a recursion that halves a side down to `cutoff` gets equal halves
/// (the side rule of I-GEP and recursive matmul).
constexpr bool halves_down_to(std::uint64_t n, std::uint64_t cutoff) noexcept {
  while (n > cutoff && n % 2 == 0) n /= 2;
  return n <= cutoff;
}

/// Reverses the low `bits` bits of `x` (used by iterative FFT baselines).
constexpr std::uint64_t reverse_bits(std::uint64_t x, unsigned bits) noexcept {
  std::uint64_t r = 0;
  for (unsigned k = 0; k < bits; ++k) {
    r = (r << 1) | ((x >> k) & 1u);
  }
  return r;
}

}  // namespace obliv::util
