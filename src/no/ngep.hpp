// N-GEP: the network-oblivious Gaussian Elimination Paradigm (paper,
// Section V-B, Table I, Theorem 6).
//
// N-GEP inherits I-GEP's recursive structure (functions A, B, C and D*),
// designed for M(n^2 / log^2 n).  The four operand blocks of a call are
// block-distributed over the call's PE group; each recursion round first
// redistributes the children's operand quadrants to their subgroups (one
// superstep -- overlapping sources aggregate, which is exactly how D's
// quadrant duplication shows up as extra traffic), runs the children in
// parallel on disjoint subgroups, and moves the X quadrants back.
//
// D* reorders D's eight recursive calls (Table I) so that no U or V
// quadrant is needed by two children of the same round; it is equivalent to
// D exactly for *commutative* GEP computations:
//   f(f(y,u1,v1,w1),u2,v2,w2) = f(f(y,u2,v2,w2),u1,v1,w1).
// Both orders are implemented so bench_table2 can reproduce Table I's
// communication contrast, and tests demonstrate the commutativity
// requirement with a non-commutative instance.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "algo/gep.hpp"
#include "no/machine.hpp"
#include "util/simd.hpp"

namespace obliv::no {

/// Declares the messages that move a `words`-word block from an even
/// distribution over PEs [s_lo, s_lo + s_q) to an even distribution over
/// [d_lo, d_lo + d_q).
inline void move_block(NoMachine& mach, std::uint64_t words,
                       std::uint64_t s_lo, std::uint64_t s_q,
                       std::uint64_t d_lo, std::uint64_t d_q) {
  if (words == 0) return;
  std::uint64_t i = 0;
  while (i < words) {
    const std::uint64_t sk = i * s_q / words;
    const std::uint64_t dk = i * d_q / words;
    const std::uint64_t s_next = ((sk + 1) * words + s_q - 1) / s_q;
    const std::uint64_t d_next = ((dk + 1) * words + d_q - 1) / d_q;
    const std::uint64_t nxt = std::min({words, s_next, d_next});
    mach.send(s_lo + sk, d_lo + dk, nxt - i);
    i = nxt;
  }
}

namespace detail {

using algo::Interval;
using Child = std::array<int, 3>;  // (a, b, k) half-selectors
using Round = std::vector<Child>;

inline const std::vector<Round>& schedule_a() {
  static const std::vector<Round> s = {
      {{0, 0, 0}}, {{0, 1, 0}, {1, 0, 0}}, {{1, 1, 0}},
      {{1, 1, 1}}, {{1, 0, 1}, {0, 1, 1}}, {{0, 0, 1}}};
  return s;
}
inline const std::vector<Round>& schedule_b() {
  static const std::vector<Round> s = {{{0, 0, 0}, {0, 1, 0}},
                                       {{1, 0, 0}, {1, 1, 0}},
                                       {{1, 0, 1}, {1, 1, 1}},
                                       {{0, 0, 1}, {0, 1, 1}}};
  return s;
}
inline const std::vector<Round>& schedule_c() {
  static const std::vector<Round> s = {{{0, 0, 0}, {1, 0, 0}},
                                       {{0, 1, 0}, {1, 1, 0}},
                                       {{0, 1, 1}, {1, 1, 1}},
                                       {{0, 0, 1}, {1, 0, 1}}};
  return s;
}
/// I-GEP's D: both rounds fix one K half; U and V quadrants are each used
/// by two children of a round (the duplication Table I highlights).
inline const std::vector<Round>& schedule_d() {
  static const std::vector<Round> s = {
      {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0}},
      {{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}};
  return s;
}
/// N-GEP's D* (Table I): every U and V quadrant appears exactly once per
/// round; valid only for commutative GEP computations.
inline const std::vector<Round>& schedule_dstar() {
  static const std::vector<Round> s = {
      {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
      {{0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {1, 1, 1}}};
  return s;
}

/// Instances exposing the native row-kernel hooks (algo/gep.hpp) vectorize
/// the host-side base case too; message/compute accounting is outside the
/// loop and unchanged.
template <class Inst>
inline constexpr bool ngep_row_kernel_v =
    std::is_same_v<typename Inst::value_type, double> &&
    requires(double* y, const double* v, double u, double w, std::size_t n,
             std::uint64_t i, std::uint64_t k, Interval J) {
      Inst::row_kernel(y, v, u, w, n);
      Inst::sigma_j(i, k, J);
    };

/// Host-side tile base case (Figure 5 restricted to I x J x K).
template <class Inst>
void ngep_base(std::vector<double>& x, std::uint64_t n, Interval I,
               Interval J, Interval K) {
  if constexpr (ngep_row_kernel_v<Inst>) {
    // vector_active(), not use_kernels(): see algo::detail::gep_base -- the
    // per-row dispatch only pays for itself when lanes are real; scalar
    // mode keeps the (bit-identical) generic triple loop.
    if (simd::vector_active()) {
      for (std::uint64_t k = K.lo; k < K.hi; ++k) {
        const double* v = x.data() + k * n;
        for (std::uint64_t i = I.lo; i < I.hi; ++i) {
          const Interval js = Inst::sigma_j(i, k, J);
          if (js.lo >= js.hi) continue;
          double* y = x.data() + i * n;
          auto run = [&](std::uint64_t jlo, std::uint64_t jhi) {
            if (jlo >= jhi) return;
            Inst::row_kernel(y + jlo, v + jlo, x[i * n + k], x[k * n + k],
                             jhi - jlo);
          };
          if (k >= js.lo && k < js.hi) {
            // The j == k store rewrites x[i][k] (and x[k][k] when i == k);
            // split there and reload the scalars.
            run(js.lo, k);
            x[i * n + k] = Inst::f(x[i * n + k], x[i * n + k], x[k * n + k],
                                   x[k * n + k]);
            run(k + 1, js.hi);
          } else {
            run(js.lo, js.hi);
          }
        }
      }
      return;
    }
  }
  for (std::uint64_t k = K.lo; k < K.hi; ++k) {
    for (std::uint64_t i = I.lo; i < I.hi; ++i) {
      for (std::uint64_t j = J.lo; j < J.hi; ++j) {
        if (!Inst::in_sigma(i, j, k)) continue;
        x[i * n + j] = Inst::f(x[i * n + j], x[i * n + k], x[k * n + j],
                               x[k * n + k]);
      }
    }
  }
}

/// Distinct operand blocks of a call on (I, J, K): X=(I,J), U=(I,K),
/// V=(K,J), W=(K,K), deduplicated by region.
inline std::vector<std::pair<Interval, Interval>> operand_blocks(
    Interval I, Interval J, Interval K) {
  std::vector<std::pair<Interval, Interval>> blocks = {
      {I, J}, {I, K}, {K, J}, {K, K}};
  std::vector<std::pair<Interval, Interval>> out;
  for (const auto& b : blocks) {
    bool dup = false;
    for (const auto& o : out) {
      if (o.first == b.first && o.second == b.second) dup = true;
    }
    if (!dup) out.push_back(b);
  }
  return out;
}

/// A child's operand quadrant together with its *home quarter*: each operand
/// matrix of a call is quadtree-distributed over the call's PE group, so
/// quadrant (r, c) of any operand lives on quarter 2r + c.  Duplicate
/// regions (overlapping operands of A/B/C) are emitted once.
struct QuadBlock {
  Interval rows, cols;
  int home;     // quarter index 0..3
  bool is_x;    // the X quadrant must be written back after the child
};

inline std::vector<QuadBlock> child_blocks(const Interval Ih[2],
                                           const Interval Jh[2],
                                           const Interval Kh[2], int a, int b,
                                           int k) {
  const QuadBlock cand[4] = {
      {Ih[a], Jh[b], 2 * a + b, true},    // X
      {Ih[a], Kh[k], 2 * a + k, false},   // U
      {Kh[k], Jh[b], 2 * k + b, false},   // V
      {Kh[k], Kh[k], 3 * k, false},       // W
  };
  std::vector<QuadBlock> out;
  for (const QuadBlock& c : cand) {
    bool dup = false;
    for (auto& o : out) {
      if (o.rows == c.rows && o.cols == c.cols) {
        o.is_x = o.is_x || c.is_x;
        dup = true;
      }
    }
    if (!dup) out.push_back(c);
  }
  return out;
}

template <class Inst>
void ngep_rec(NoMachine& mach, std::vector<double>& x, std::uint64_t n,
              Interval I, Interval J, Interval K, std::uint64_t g_lo,
              std::uint64_t g_q, bool use_dstar,
              std::uint64_t base_cutoff) {
  if (!Inst::intersects(I, J, K)) return;
  const std::uint64_t m = I.len();
  if (m <= base_cutoff || g_q == 1) {
    // Leaf: gather the distinct operand blocks to the group leader,
    // compute locally, scatter X back.
    const std::uint64_t bw = m * m;
    if (g_q > 1) {
      for (const auto& blk : operand_blocks(I, J, K)) {
        (void)blk;
        move_block(mach, bw, g_lo, g_q, g_lo, 1);
      }
      mach.end_superstep();
    }
    ngep_base<Inst>(x, n, I, J, K);
    mach.compute(g_lo, m * m * K.len());
    if (g_q > 1) {
      move_block(mach, bw, g_lo, 1, g_lo, g_q);
      mach.end_superstep();
    }
    return;
  }

  const Interval Ih[2] = {I.low_half(), I.high_half()};
  const Interval Jh[2] = {J.low_half(), J.high_half()};
  const Interval Kh[2] = {K.low_half(), K.high_half()};

  const algo::GepFn fn = algo::classify(I, J, K);
  const std::vector<Round>* sched = nullptr;
  switch (fn) {
    case algo::GepFn::kA: sched = &schedule_a(); break;
    case algo::GepFn::kB: sched = &schedule_b(); break;
    case algo::GepFn::kC: sched = &schedule_c(); break;
    case algo::GepFn::kD:
      sched = use_dstar ? &schedule_dstar() : &schedule_d();
      break;
  }

  const std::uint64_t half_words = (m / 2) * (m / 2);
  // Home quarters of the quadtree layout (valid when g_q >= 4; smaller
  // groups degrade to even distribution over the whole group).
  const bool quartered = g_q >= 4;
  const std::uint64_t q4 = g_q / 4;
  auto home_lo = [&](int h) {
    return quartered ? g_lo + std::uint64_t(h) * q4 : g_lo;
  };
  auto home_q = [&](int h) {
    if (!quartered) return g_q;
    return (h == 3) ? g_q - 3 * q4 : q4;
  };

  for (const Round& round : *sched) {
    const std::uint64_t cnt = round.size();
    const std::uint64_t subgroups = std::min<std::uint64_t>(g_q, cnt);
    const std::uint64_t per = g_q / subgroups;
    auto sub_lo = [&](std::uint64_t s) { return g_lo + s * per; };
    auto sub_q = [&](std::uint64_t s) {
      return (s + 1 == subgroups) ? g_q - s * per : per;
    };

    // Redistribute operand quadrants from their home quarters to the
    // executing subgroups: one superstep.  In I-GEP's D order, U and V
    // quadrants are needed by two children of the round, so their home
    // quarters send twice -- the duplication Table I highlights; D*'s
    // round uses each U/V quadrant once.
    for (std::uint64_t c = 0; c < cnt; ++c) {
      const auto [a, b, k] = round[c];
      const std::uint64_t s = c % subgroups;
      for (const QuadBlock& blk : child_blocks(Ih, Jh, Kh, a, b, k)) {
        move_block(mach, half_words, home_lo(blk.home), home_q(blk.home),
                   sub_lo(s), sub_q(s));
      }
    }
    mach.end_superstep();

    // Children of the round run in parallel on disjoint subgroups.
    mach.parallel_begin();
    for (std::uint64_t s = 0; s < subgroups; ++s) {
      for (std::uint64_t c = s; c < cnt; c += subgroups) {
        const auto [a, b, k] = round[c];
        ngep_rec<Inst>(mach, x, n, Ih[a], Jh[b], Kh[k], sub_lo(s), sub_q(s),
                       use_dstar, base_cutoff);
      }
      mach.parallel_next();
    }
    mach.parallel_end();

    // Updated X quadrants return to their home quarters.
    for (std::uint64_t c = 0; c < cnt; ++c) {
      const auto [a, b, k] = round[c];
      const std::uint64_t s = c % subgroups;
      move_block(mach, half_words, sub_lo(s), sub_q(s), home_lo(2 * a + b),
                 home_q(2 * a + b));
    }
    mach.end_superstep();
  }
}

}  // namespace detail

/// Runs the instance's GEP computation on the n x n host matrix `x` as
/// N-GEP on M(mach.pes()), with D* (use_dstar) or I-GEP's D ordering.
template <class Inst>
void n_gep(NoMachine& mach, std::vector<double>& x, std::uint64_t n,
           bool use_dstar = true, std::uint64_t base_cutoff = 4) {
  const algo::Interval all{0, n};
  detail::ngep_rec<Inst>(mach, x, n, all, all, all, 0, mach.pes(), use_dstar,
                         base_cutoff);
}

}  // namespace obliv::no
