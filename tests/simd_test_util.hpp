// Helpers shared by the SIMD-layer tests (test_simd_kernels.cpp,
// test_simd_golden.cpp, test_native_leaf.cpp): random doubles and the
// bitwise comparisons their parity checks use.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace obliv::simd_test {

using util::Xoshiro256;

inline double rnd(Xoshiro256& g) {
  return static_cast<double>(g() >> 11) * 0x1p-52 - 1.0;  // [-1, 1)
}

template <class T>
::testing::AssertionResult BitsEqual(const std::vector<T>& a,
                                     const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
        return ::testing::AssertionFailure() << "first mismatch at " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// BitsEqual, except that a NaN matches any NaN.  When both operands of an
// add are NaN, x86 returns the first one, and which operand comes first is
// the compiler's register-allocation choice -- C++ and IEEE 754 leave the
// payload unspecified, so only NaN-ness is part of the kernels' contract.
inline ::testing::AssertionResult SameValues(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs "
                                         << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace obliv::simd_test
