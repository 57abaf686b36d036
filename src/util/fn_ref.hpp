// FnRef: a non-owning, allocation-free reference to a callable.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace obliv::util {

template <class Sig>
class FnRef;

/// Two words: a pointer to the callable and a trampoline that invokes it.
/// Binding never allocates and never copies the callable, whatever its
/// captures.  An FnRef does not extend the callable's lifetime, so it is
/// only ever used
///   * as a by-value function parameter: the argument (typically a lambda
///     temporary) lives until the call returns; or
///   * as a field of a stack `Task` (or an `SbTask` in a braced list) that
///     is joined before the frame owning the callable returns.
/// Never store one beyond the call that received it.
template <class R, class... Args>
class FnRef<R(Args...)> {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FnRef(F&& f) noexcept  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(&invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  template <class F>
  static R invoke(void* obj, Args... args) {
    return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
  }

  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace obliv::util
