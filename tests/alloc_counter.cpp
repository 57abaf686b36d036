// Replacement global operator new/delete for the test binary; see
// alloc_counter.hpp.
#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace obliv::testing {
namespace {
thread_local AllocCounter* t_active = nullptr;
}  // namespace

AllocCounter::AllocCounter(std::size_t big_bytes)
    : big_bytes_(big_bytes), prev_(t_active) {
  t_active = this;
}

AllocCounter::~AllocCounter() { t_active = prev_; }

void AllocCounter::record(std::size_t n) noexcept {
  ++count_;
  bytes_ += n;
  if (n > largest_) largest_ = n;
  if (n >= big_bytes_) ++big_;
}

namespace {
void* counted_alloc(std::size_t n) {
  if (t_active != nullptr) t_active->record(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

}  // namespace obliv::testing

void* operator new(std::size_t n) { return obliv::testing::counted_alloc(n); }
void* operator new[](std::size_t n) {
  return obliv::testing::counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
