// MO-LR: multicore-oblivious list ranking (paper, Section VI-A, Figure 6,
// Theorem 7).
//
// A linked list of n nodes is stored as arrays: succ[v] / pred[v] are node
// indices (kNil at the ends).  The rank of a node is its distance from the
// end of the list.  MO-LR contracts the list by removing an independent set
// S (computed by MO-IS via deterministic coin flipping [21]), recurses on
// the contracted list down to constant size, and extends ranks back to S.
//
// All inter-node communication ("what is my successor's color / rank?") is
// done with O(1) sorts and scans per step -- the mo_pull primitive below --
// scheduled CGC=>SB (inside SPMS) and CGC, exactly as the paper prescribes.
// On the model path (SimRef, NoRef, and NatRef under simd::Mode::kGeneric)
// pointer-chasing random access therefore never happens outside the
// constant-size base case.
//
// Native pull (DESIGN.md §5f): the routing exists to meet Theorem 7's
// cache bound on the model, where misses are what is counted.  A pull's
// output is fully defined by its inputs, so on direct-memory refs mo_pull
// and mo_pull3 are one CGC gather, out[v] = field[target[v]], with no
// record buffer and no sort; the results are bit-identical.
//
// Substitution note (DESIGN.md): Figure 6 iterates over the O(log log n)
// color classes, inserting duplicate records to block neighbors.  We apply
// deterministic coin flipping three times (the paper itself suggests k
// applications to reduce the log log n factor), after which the number of
// colors is at most 8 for any feasible n, and select S as the local color
// minima -- one CGC pass, guaranteed independent, and a constant fraction
// (>= n / 14) of the nodes.  This keeps every bound shape of Theorem 7
// while avoiding the duplicate-record machinery.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "fault/status.hpp"
#include "sched/cancel.hpp"
#include "sched/hints.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

inline constexpr std::uint64_t kNil = ~0ull;

namespace detail {

/// Sort-based communication record: carries the value being routed.
struct PullRec {
  std::uint64_t key;
  std::uint64_t src;
  std::uint64_t val;
  bool operator<(const PullRec& o) const {
    return key != o.key ? key < o.key : src < o.src;
  }
};

/// True if the element ranges of `a` and `b` share an address.
template <class Ref>
bool overlaps(const Ref& a, const Ref& b) {
  using T = typename Ref::value_type;
  const auto a0 = reinterpret_cast<std::uintptr_t>(a.raw());
  const auto b0 = reinterpret_cast<std::uintptr_t>(b.raw());
  return a0 < b0 + b.size() * sizeof(T) && b0 < a0 + a.size() * sizeof(T);
}

/// The pull precondition, checked in O(1) before any write: every output
/// holds target.size() elements, no output overlaps `target` or a field,
/// and two outputs are either the same array or disjoint (a pull writes
/// its outputs in argument order, so on the same array the last one
/// wins).  Throws obliv::Error(kInvalidArgument) otherwise.
template <class RefU64>
void check_pull(const char* who, const RefU64& target,
                std::initializer_list<RefU64> fields,
                std::initializer_list<RefU64> outs) {
  auto fail = [who](const char* what) {
    throw Error(ErrorCode::kInvalidArgument, std::string(who) + ": " + what);
  };
  for (const RefU64* o = outs.begin(); o != outs.end(); ++o) {
    if (o->size() < target.size()) fail("an output is shorter than target");
    if (overlaps(*o, target)) fail("an output overlaps target");
    for (const RefU64& f : fields) {
      if (overlaps(*o, f)) fail("an output overlaps a field");
    }
    for (const RefU64* p = outs.begin(); p != o; ++p) {
      if (p->raw() != o->raw() && overlaps(*o, *p)) {
        fail("two outputs overlap without being the same array");
      }
    }
  }
}

/// Native pull of K fields: out[k][v] = target[v] == kNil ? dflt[k] :
/// field[k][target[v]], as one CGC gather on raw pointers.
template <std::size_t K>
struct Gather {
  const std::uint64_t* target;
  const std::uint64_t* field[K];
  std::uint64_t* out[K];
  std::uint64_t dflt[K];
};

template <std::size_t K, class Exec>
void pull_gather(Exec& ex, std::uint64_t n, const Gather<K>& g) {
  ex.cgc_pfor(0, n, 1 + 2 * K, [&g](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t v = lo; v < hi; ++v) {
      const std::uint64_t s = g.target[v];
      for (std::size_t k = 0; k < K; ++k) {
        g.out[k][v] = s == kNil ? g.dflt[k] : g.field[k][s];
      }
    }
  });
}

}  // namespace detail

/// out[v] = field[target[v]] for every v with target[v] != kNil, else
/// out[v] = dflt.  `out` holds at least target.size() elements and
/// overlaps neither `target` nor `field` (`field` may be `target`);
/// otherwise obliv::Error(kInvalidArgument) is thrown before any write.
/// Implemented with two SPMS sorts and three CGC scans (the "O(1) sorts
/// and scans" pattern of Section VI); field reads happen in sorted key
/// order, so they form a near-sequential sweep.  On direct-memory refs it
/// is one CGC gather instead (see the file comment).
template <class Exec, class RefU64>
void mo_pull(Exec& ex, RefU64 target, RefU64 field, RefU64 out,
             std::uint64_t dflt) {
  using detail::PullRec;
  detail::check_pull("mo_pull", target, {field}, {out});
  const std::uint64_t n = target.size();
  if (n == 0) return;
  if constexpr (sched::is_direct_ref_v<RefU64>) {
    if (simd::use_kernels()) {
      detail::pull_gather<1>(
          ex, n, {target.raw(), {field.raw()}, {out.raw()}, {dflt}});
      return;
    }
  }
  auto recs_buf = ex.template make_buf<PullRec>(n);
  auto recs = recs_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 3, [&](std::uint64_t v) {
    recs.store(v, PullRec{target.load(v), v, 0});
  });
  spms_sort(ex, recs);
  sched::cgc_pfor_each(ex, 0, n, 3, [&](std::uint64_t r) {
    PullRec rec = recs.load(r);
    rec.val = rec.key == kNil ? dflt : field.load(rec.key);
    // Re-key by source so the second sort routes the value home.
    rec.key = rec.src;
    recs.store(r, rec);
  });
  spms_sort(ex, recs);
  sched::cgc_pfor_each(ex, 0, n, 3, [&](std::uint64_t r) {
    const PullRec rec = recs.load(r);
    assert(rec.key == r);
    out.store(r, rec.val);
  });
}

namespace detail {

/// Three-field routing record: one sort round-trip delivers three pulled
/// fields at once (used by the contraction step, where the same target
/// array serves several pulls -- a constant-factor saving over three
/// separate mo_pull calls).
struct PullRec3 {
  std::uint64_t key;
  std::uint64_t src;
  std::uint64_t val[3];
  bool operator<(const PullRec3& o) const {
    return key != o.key ? key < o.key : src < o.src;
  }
};

}  // namespace detail

/// Batched pull: out_k[v] = field_k[target[v]] for k = 0, 1, 2 (dflt_k when
/// target[v] == kNil).  Two SPMS sorts total, like mo_pull, and the same
/// precondition (checked the same way); two outputs may also be the same
/// array, in which case the later one's value is stored.
template <class Exec, class RefU64>
void mo_pull3(Exec& ex, RefU64 target, RefU64 f0, RefU64 f1, RefU64 f2,
              RefU64 o0, RefU64 o1, RefU64 o2, std::uint64_t d0,
              std::uint64_t d1, std::uint64_t d2) {
  using detail::PullRec3;
  detail::check_pull("mo_pull3", target, {f0, f1, f2}, {o0, o1, o2});
  const std::uint64_t n = target.size();
  if (n == 0) return;
  if constexpr (sched::is_direct_ref_v<RefU64>) {
    if (simd::use_kernels()) {
      detail::pull_gather<3>(ex, n,
                             {target.raw(),
                              {f0.raw(), f1.raw(), f2.raw()},
                              {o0.raw(), o1.raw(), o2.raw()},
                              {d0, d1, d2}});
      return;
    }
  }
  auto recs_buf = ex.template make_buf<PullRec3>(n);
  auto recs = recs_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 5, [&](std::uint64_t v) {
    recs.store(v, PullRec3{target.load(v), v, {0, 0, 0}});
  });
  spms_sort(ex, recs);
  sched::cgc_pfor_each(ex, 0, n, 5, [&](std::uint64_t r) {
    PullRec3 rec = recs.load(r);
    if (rec.key == kNil) {
      rec.val[0] = d0;
      rec.val[1] = d1;
      rec.val[2] = d2;
    } else {
      rec.val[0] = f0.load(rec.key);
      rec.val[1] = f1.load(rec.key);
      rec.val[2] = f2.load(rec.key);
    }
    rec.key = rec.src;
    recs.store(r, rec);
  });
  spms_sort(ex, recs);
  sched::cgc_pfor_each(ex, 0, n, 5, [&](std::uint64_t r) {
    const PullRec3 rec = recs.load(r);
    assert(rec.key == r);
    o0.store(r, rec.val[0]);
    o1.store(r, rec.val[1]);
    o2.store(r, rec.val[2]);
  });
}

namespace detail {

/// One deterministic coin-flipping step [21]: given a coloring where
/// adjacent nodes differ, produce a (1 + log k)-bit coloring that still
/// differs across each list edge.  scolor[v] = color of succ(v) (kNil ends
/// handled by the caller's pull default).
template <class Exec, class RefU64>
void dcf_step(Exec& ex, RefU64 color, RefU64 scolor, RefU64 succ) {
  const std::uint64_t n = color.size();
  sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t v) {
    const std::uint64_t c = color.load(v);
    std::uint64_t k = 0, bit;
    if (succ.load(v) == kNil) {
      bit = c & 1;  // tail: encode (0, own bit 0); cannot collide with pred
    } else {
      const std::uint64_t diff = c ^ scolor.load(v);
      assert(diff != 0 && "adjacent nodes must have distinct colors");
      k = static_cast<std::uint64_t>(__builtin_ctzll(diff));
      bit = (c >> k) & 1;
    }
    color.store(v, 2 * k + bit);
    ex.tick(2);
  });
}

constexpr std::uint64_t kLrBase = 64;

/// Sequential base case: walk backward from the tail accumulating weighted
/// distances.
template <class Exec, class RefU64>
void lr_base(Exec& ex, RefU64 succ, RefU64 pred, RefU64 len, RefU64 dist) {
  // The only data-dependent serial walk in the tree: when the enclosing
  // job is poisoned the parallel contraction phases above were skipped,
  // so succ/pred are unspecified here -- the walk could assert or cycle.
  // Poison is permanent, so garbage inputs imply the check fires.
  if (sched::detail::cancel_pending()) return;
  const std::uint64_t n = succ.size();
  std::uint64_t tail = kNil;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (succ.load(v) == kNil) {
      tail = v;
      break;
    }
  }
  assert(tail != kNil && "list must have a tail");
  std::uint64_t u = tail;
  dist.store(u, 0);
  while (pred.load(u) != kNil) {
    const std::uint64_t p = pred.load(u);
    dist.store(p, dist.load(u) + len.load(p));
    u = p;
  }
  (void)ex;
}

template <class Exec, class RefU64>
void lr_rec(Exec& ex, RefU64 succ, RefU64 pred, RefU64 len, RefU64 dist,
            int dcf_rounds) {
  const std::uint64_t n = succ.size();
  if (n <= kLrBase) {
    lr_base(ex, succ, pred, len, dist);
    return;
  }

  // ---- MO-IS: k-fold deterministic coin flipping (paper footnote 4:
  // k applications shrink the color count to O(log^(k) n)), then local
  // color minima. ----
  auto color_buf = ex.template make_buf<std::uint64_t>(n);
  auto scol_buf = ex.template make_buf<std::uint64_t>(n);
  auto pcol_buf = ex.template make_buf<std::uint64_t>(n);
  auto color = color_buf.ref(), scol = scol_buf.ref(), pcol = pcol_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1,
                       [&](std::uint64_t v) { color.store(v, v); });
  for (int round = 0; round < dcf_rounds; ++round) {
    mo_pull(ex, succ, color, scol, kNil);
    dcf_step(ex, color, scol, succ);
  }
  mo_pull(ex, succ, color, scol, kNil);
  mo_pull(ex, pred, color, pcol, kNil);
  auto in_s_buf = ex.template make_buf<std::uint64_t>(n);
  auto in_s = in_s_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t v) {
    const bool interior = succ.load(v) != kNil && pred.load(v) != kNil;
    const std::uint64_t c = color.load(v);
    in_s.store(v, interior && c < scol.load(v) && c < pcol.load(v) ? 1 : 0);
  });

  // ---- Contract: splice S out of the list. ----
  auto ins_s_buf = ex.template make_buf<std::uint64_t>(n);   // inS[succ[v]]
  auto succ2_buf = ex.template make_buf<std::uint64_t>(n);   // succ[succ[v]]
  auto lens_buf = ex.template make_buf<std::uint64_t>(n);    // len[succ[v]]
  auto ins_p_buf = ex.template make_buf<std::uint64_t>(n);   // inS[pred[v]]
  auto pred2_buf = ex.template make_buf<std::uint64_t>(n);   // pred[pred[v]]
  auto ins_s = ins_s_buf.ref(), succ2 = succ2_buf.ref(),
       lens = lens_buf.ref(), ins_p = ins_p_buf.ref(),
       pred2 = pred2_buf.ref();
  // Batched: one pull per direction instead of three/two (on the model
  // path, one routed sort pair).
  mo_pull3(ex, succ, in_s, succ, len, ins_s, succ2, lens, 0, kNil, 0);
  mo_pull3(ex, pred, in_s, pred, pred, ins_p, pred2, pred2, 0, kNil, kNil);

  auto nsucc_buf = ex.template make_buf<std::uint64_t>(n);
  auto npred_buf = ex.template make_buf<std::uint64_t>(n);
  auto nlen_buf = ex.template make_buf<std::uint64_t>(n);
  auto nsucc = nsucc_buf.ref(), npred = npred_buf.ref(), nlen = nlen_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 3, [&](std::uint64_t v) {
    std::uint64_t s = succ.load(v), p = pred.load(v), l = len.load(v);
    if (in_s.load(v) == 0) {
      if (s != kNil && ins_s.load(v)) {
        l += lens.load(v);  // absorb the removed successor's edge
        s = succ2.load(v);
      }
      if (p != kNil && ins_p.load(v)) p = pred2.load(v);
    }
    nsucc.store(v, s);
    npred.store(v, p);
    nlen.store(v, l);
  });

  // ---- Compact survivors with a prefix sum. ----
  auto alive_buf = ex.template make_buf<std::uint64_t>(n);
  auto alive = alive_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t v) {
    alive.store(v, in_s.load(v) ? 0 : 1);
  });
  mo_prefix_sum(ex, alive);  // inclusive: newid[v] = alive[v] - 1 if alive
  const std::uint64_t n2 = alive.load(n - 1);
  assert(n2 < n && "independent set must be non-empty");

  auto old2new_buf = ex.template make_buf<std::uint64_t>(n);
  auto new2old_buf = ex.template make_buf<std::uint64_t>(n2);
  auto old2new = old2new_buf.ref(), new2old = new2old_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
    if (in_s.load(v)) {
      old2new.store(v, kNil);
    } else {
      const std::uint64_t id = alive.load(v) - 1;
      old2new.store(v, id);
      new2old.store(id, v);
    }
  });

  // Remap spliced pointers to compacted ids (pulls through old2new).
  auto msucc_buf = ex.template make_buf<std::uint64_t>(n);
  auto mpred_buf = ex.template make_buf<std::uint64_t>(n);
  auto msucc = msucc_buf.ref(), mpred = mpred_buf.ref();
  mo_pull(ex, nsucc, old2new, msucc, kNil);
  mo_pull(ex, npred, old2new, mpred, kNil);

  auto ssucc_buf = ex.template make_buf<std::uint64_t>(n2);
  auto spred_buf = ex.template make_buf<std::uint64_t>(n2);
  auto slen_buf = ex.template make_buf<std::uint64_t>(n2);
  auto sdist_buf = ex.template make_buf<std::uint64_t>(n2);
  auto ssucc = ssucc_buf.ref(), spred = spred_buf.ref(),
       slen = slen_buf.ref(), sdist = sdist_buf.ref();
  sched::cgc_pfor_each(ex, 0, n2, 4, [&](std::uint64_t s) {
    const std::uint64_t v = new2old.load(s);
    ssucc.store(s, msucc.load(v));
    spred.store(s, mpred.load(v));
    slen.store(s, nlen.load(v));
  });

  // ---- Recurse on the contracted list. ----
  lr_rec(ex, ssucc, spred, slen, sdist, dcf_rounds);

  // ---- Expand: survivors copy back, removed nodes read their successor. ----
  sched::cgc_pfor_each(ex, 0, n2, 2, [&](std::uint64_t s) {
    dist.store(new2old.load(s), sdist.load(s));
  });
  auto dist_s_buf = ex.template make_buf<std::uint64_t>(n);
  auto dist_s = dist_s_buf.ref();
  mo_pull(ex, succ, dist, dist_s, 0);
  sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
    if (in_s.load(v)) dist.store(v, dist_s.load(v) + len.load(v));
  });
}

}  // namespace detail

/// MO-LR: fills dist[v] with the weighted distance from v to the tail of
/// the list (len[v] = weight of the edge v -> succ[v]).  `dcf_rounds` is
/// the number of deterministic-coin-flipping applications per contraction
/// level (>= 2; the paper's footnote-4 knob).
template <class Exec, class RefU64>
void mo_list_rank_weighted(Exec& ex, RefU64 succ, RefU64 pred, RefU64 len,
                           RefU64 dist, int dcf_rounds = 3) {
  detail::lr_rec(ex, succ, pred, len, dist, dcf_rounds);
}

/// MO-LR with unit weights: dist[v] = number of nodes after v.
template <class Exec, class RefU64>
void mo_list_rank(Exec& ex, RefU64 succ, RefU64 pred, RefU64 dist,
                  int dcf_rounds = 3) {
  const std::uint64_t n = succ.size();
  auto len_buf = ex.template make_buf<std::uint64_t>(n);
  auto len = len_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t v) { len.store(v, 1); });
  mo_list_rank_weighted(ex, succ, pred, len, dist, dcf_rounds);
}

/// Sequential pointer-chasing baseline (the memory-unfriendly classic):
/// O(n) work but one random access per hop and zero parallelism.
template <class Exec, class RefU64>
void list_rank_sequential(Exec& ex, RefU64 succ, RefU64 pred, RefU64 dist) {
  const std::uint64_t n = succ.size();
  std::uint64_t tail = kNil;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (succ.load(v) == kNil) {
      tail = v;
      break;
    }
  }
  assert(tail != kNil);
  std::uint64_t u = tail, d = 0;
  dist.store(u, 0);
  while (pred.load(u) != kNil) {
    u = pred.load(u);
    dist.store(u, ++d);
  }
  (void)ex;
}

}  // namespace obliv::algo
