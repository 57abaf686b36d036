// Test-only allocation counter.
//
// alloc_counter.cpp replaces the global operator new/delete of the test
// binary with malloc/free and, on a thread inside an AllocCounter scope,
// records every allocation that goes through operator new.  Counting is
// per thread: allocations made by other threads (pool workers, gtest) are
// not seen, so a property checked with it should run on a 1-worker
// NativeExecutor, where every scheduler construct runs on the calling
// thread.  Over-aligned operator new and plain malloc are not counted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace obliv::testing {

class AllocCounter {
 public:
  /// Starts counting this thread's allocations.  An allocation of at least
  /// `big_bytes` bytes also counts as big.  Scopes nest: the innermost one
  /// counts, and the enclosing one resumes when it ends.
  explicit AllocCounter(
      std::size_t big_bytes = std::numeric_limits<std::size_t>::max());
  ~AllocCounter();
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

  std::uint64_t count() const { return count_; }    ///< allocations
  std::uint64_t bytes() const { return bytes_; }    ///< bytes requested
  std::uint64_t largest() const { return largest_; }
  std::uint64_t big() const { return big_; }  ///< allocations >= big_bytes

  /// Called by the replacement operator new; allocation-free.
  void record(std::size_t n) noexcept;

 private:
  std::size_t big_bytes_;
  AllocCounter* prev_;
  std::uint64_t count_ = 0, bytes_ = 0, largest_ = 0, big_ = 0;
};

}  // namespace obliv::testing
