// NoExecutor: runs the *same* algorithm templates as SimExecutor /
// NativeExecutor, but on the M(N) message-passing model.
//
// This realizes the paper's closing observation -- that MO and NO
// algorithms are two faces of one oblivious design: data lives in
// block-distributed arrays (N/p-consecutive-PEs folding), every remote
// load/store is declared as a message to NoMachine, and each parallel
// construct is one (or more) supersteps.  Running MO-LR or MO-CC through
// this executor yields exactly the NO-LR / NO-CC adaptations of Section
// VI-B: nodes evenly distributed among PEs, communication dominated by the
// O(1) sorts and scans per contraction step.
//
// The executor tracks a PE-group context (the message-passing analogue of
// an anchor's shadow): CGC pfors split their range over the group's PEs,
// and SB / CGC=>SB forks narrow the group recursively.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "no/machine.hpp"
#include "sched/hints.hpp"
#include "util/bits.hpp"
#include "util/fn_ref.hpp"

namespace obliv::no {

template <class T>
class NoRef;
template <class T>
class NoBuf;

class NoExecutor {
 public:
  explicit NoExecutor(NoMachine* machine)
      : mach_(machine), group_lo_(0), group_hi_(machine->pes()),
        cur_pe_(0) {}

  NoMachine& machine() { return *mach_; }
  std::uint64_t pes() const { return mach_->pes(); }
  std::uint64_t current_pe() const { return cur_pe_; }

  template <class T>
  NoBuf<T> make_buf(std::size_t n);

  /// Element-wise copy (counterpart of SimExecutor::copy).  Per-element on
  /// this model: every element's read and write owes its own message.
  template <class T>
  void copy(NoRef<T> dst, NoRef<T> src) {
    assert(dst.size() == src.size());
    for (std::size_t i = 0; i < src.size(); ++i) dst.store(i, src.load(i));
  }

  void tick(std::uint64_t n) { mach_->compute(cur_pe_, n); }

  /// Called by NoRef on every element access: local accesses cost compute
  /// only; remote ones are declared messages (a read pulls the value from
  /// the owner, a write pushes it).
  void access_at(std::uint64_t owner_pe, std::uint32_t words, bool write) {
    if (owner_pe != cur_pe_) {
      if (write) {
        mach_->send(cur_pe_, owner_pe, words);
      } else {
        mach_->send(owner_pe, cur_pe_, words);
      }
    }
    mach_->compute(cur_pe_, words);
  }

  // ---- Exec interface (same shape as SimExecutor) -------------------------

  void cgc_pfor(std::uint64_t lo, std::uint64_t hi,
                std::uint64_t words_per_iter,
                util::FnRef<void(std::uint64_t, std::uint64_t)> body) {
    if (hi <= lo) return;
    mach_->end_superstep();
    const std::uint64_t t = hi - lo;
    const std::uint64_t group = group_hi_ - group_lo_;
    const std::uint64_t chunks = std::min<std::uint64_t>(group, t);
    const std::uint64_t len = util::ceil_div(t, chunks);
    const std::uint64_t saved = cur_pe_;
    std::uint64_t j = 0;
    for (std::uint64_t start = lo; start < hi; start += len, ++j) {
      cur_pe_ = group_lo_ + (j % group);
      body(start, std::min(hi, start + len));
    }
    cur_pe_ = saved;
    mach_->end_superstep();
  }

  void sb_parallel(std::initializer_list<sched::SbTask> tasks) {
    run_group_tasks(tasks.size(),
                    [&](std::uint64_t k) { tasks.begin()[k].body(); });
  }

  void sb_seq(std::uint64_t, util::FnRef<void()> body) { body(); }

  void cgc_sb_pfor(std::uint64_t count, std::uint64_t,
                   util::FnRef<void(std::uint64_t)> body) {
    run_group_tasks(count, body);
  }

 private:
  /// Splits the current PE group into min(count, group) subgroups; tasks
  /// mapped to the same subgroup serialize, disjoint subgroups run in
  /// parallel (accounted by max via NoMachine's parallel frames).
  template <class F>
  void run_group_tasks(std::uint64_t count, const F& body) {
    if (count == 0) return;
    const std::uint64_t lo = group_lo_, hi = group_hi_;
    const std::uint64_t group = hi - lo;
    const std::uint64_t subgroups = std::min<std::uint64_t>(group, count);
    const std::uint64_t per = group / subgroups;
    const std::uint64_t saved_pe = cur_pe_;
    mach_->parallel_begin();
    for (std::uint64_t s = 0; s < subgroups; ++s) {
      group_lo_ = lo + s * per;
      group_hi_ = (s + 1 == subgroups) ? hi : lo + (s + 1) * per;
      cur_pe_ = group_lo_;
      for (std::uint64_t k = s; k < count; k += subgroups) body(k);
      mach_->parallel_next();
    }
    mach_->parallel_end();
    group_lo_ = lo;
    group_hi_ = hi;
    cur_pe_ = saved_pe;
  }

  NoMachine* mach_;
  std::uint64_t group_lo_, group_hi_;
  std::uint64_t cur_pe_;
  std::uint64_t addr_top_ = 0;

  template <class T>
  friend class NoBuf;
};

/// Block-distributed array view: element i of an n-element buffer created by
/// PE group [g_lo, g_hi) lives at PE g_lo + i * (g_hi - g_lo) / n.
template <class T>
class NoRef {
 public:
  using value_type = T;

  NoRef() = default;
  NoRef(NoExecutor* ex, T* data, std::size_t n, std::uint64_t g_lo,
        std::uint64_t g_span, std::uint64_t off0, std::size_t n0)
      : ex_(ex), data_(data), n_(n), g_lo_(g_lo), g_span_(g_span),
        off0_(off0), n0_(n0), own_x0_(n0 * g_span) {}

  T load(std::size_t i) const {
    assert(i < n_);
    ex_->access_at(owner(i), W, false);
    return data_[i];
  }

  void store(std::size_t i, const T& v) const {
    assert(i < n_);
    ex_->access_at(owner(i), W, true);
    data_[i] = v;
  }

  template <class F>
  void update(std::size_t i, F&& f) const {
    assert(i < n_);
    ex_->access_at(owner(i), W, true);
    f(data_[i]);
  }

  // Batched accessors, per-element here: consecutive elements may live on
  // different PEs, so each one still declares its own message.  Message and
  // compute counters are bit-identical to the unbatched loop.
  void load_run(std::size_t i, std::size_t len, T* out) const {
    for (std::size_t k = 0; k < len; ++k) out[k] = load(i + k);
  }
  void store_run(std::size_t i, std::size_t len, const T* src) const {
    for (std::size_t k = 0; k < len; ++k) store(i + k, src[k]);
  }
  std::pair<T, T> load2(std::size_t i) const {
    const T a = load(i);
    return {a, load(i + 1)};
  }

  NoRef slice(std::size_t off, std::size_t len) const {
    assert(off + len <= n_);
    return NoRef(ex_, data_ + off, len, g_lo_, g_span_, off0_ + off, n0_);
  }

  std::size_t size() const { return n_; }
  T* raw() const { return data_; }

  /// Owner PE of element i (relative to the original buffer's layout):
  /// g_lo + floor(x / n0) with x = (off0 + i) * g_span.  The x-range of the
  /// last owner is cached, so runs of accesses to one PE's elements divide
  /// only when they cross into another PE's range.
  std::uint64_t owner(std::size_t i) const {
    const std::uint64_t x = (off0_ + i) * g_span_;
    if (x - own_x0_ >= n0_) {  // x outside [own_x0_, own_x0_ + n0_)
      const std::uint64_t k = x / n0_;
      own_x0_ = k * n0_;
      own_pe_ = g_lo_ + k;
    }
    return own_pe_;
  }

 private:
  static constexpr std::uint64_t W = (sizeof(T) + 7) / 8;
  NoExecutor* ex_ = nullptr;
  T* data_ = nullptr;
  std::size_t n_ = 0;
  std::uint64_t g_lo_ = 0, g_span_ = 1;
  std::uint64_t off0_ = 0;  // offset of this slice in the original buffer
  std::size_t n0_ = 1;      // original buffer length
  // owner() cache: x in [own_x0_, own_x0_ + n0_) lives on PE own_pe_.  It
  // starts at n0 * g_span, past every x, so the first call misses.
  mutable std::uint64_t own_x0_ = 1, own_pe_ = 0;
};

template <class T>
class NoBuf {
 public:
  NoBuf() = default;
  NoBuf(NoExecutor* ex, std::size_t n, std::uint64_t g_lo,
        std::uint64_t g_span)
      : ex_(ex), v_(n), g_lo_(g_lo), g_span_(g_span) {}

  NoRef<T> ref() {
    return NoRef<T>(ex_, v_.data(), v_.size(), g_lo_, g_span_, 0,
                    std::max<std::size_t>(1, v_.size()));
  }
  std::size_t size() const { return v_.size(); }
  std::vector<T>& raw() { return v_; }
  const std::vector<T>& raw() const { return v_; }

 private:
  NoExecutor* ex_ = nullptr;
  std::vector<T> v_;
  std::uint64_t g_lo_ = 0, g_span_ = 1;
};

template <class T>
NoBuf<T> NoExecutor::make_buf(std::size_t n) {
  return NoBuf<T>(this, n, group_lo_, group_hi_ - group_lo_);
}

}  // namespace obliv::no
