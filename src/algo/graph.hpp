// Graph algorithms of Section VI: Euler tour, tree computations (rooting,
// vertex depth, subtree size) and connected components (Theorem 8).
//
// All of them follow the paper's recipe: the only primitives are SPMS sorts
// (CGC=>SB), CGC scans, and MO-LR -- "O(1) sorts and scans" per step, with
// graphs contracted recursively.  Arcs are packed (src << 32 | dst) into
// 64-bit words so the sort primitive applies directly.
//
// Connected components implements min-neighbor hooking with 2-cycle
// breaking and pointer jumping (the PRAM CREW algorithm of Chin, Lam & Chen
// [25], adapted to sorted arc lists as in [22], [23]): every round each
// non-isolated supervertex merges with at least one neighbor, so
// O(log n) contraction rounds suffice.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "util/bits.hpp"

namespace obliv::algo {

/// Packs an arc; vertex ids must be < 2^32.
inline constexpr std::uint64_t pack_arc(std::uint64_t u, std::uint64_t v) {
  return (u << 32) | v;
}
inline constexpr std::uint64_t arc_src(std::uint64_t a) { return a >> 32; }
inline constexpr std::uint64_t arc_dst(std::uint64_t a) {
  return a & 0xffffffffull;
}

/// Host-side undirected edge list.
struct EdgeList {
  std::uint64_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

// ---------------------------------------------------------------------------
// Euler tour on trees.
// ---------------------------------------------------------------------------

/// Result of the Euler-tour tree computations, all derived from two
/// applications of MO-LR on the tour list.
struct TreeFunctions {
  std::vector<std::uint64_t> parent;        // parent[root] = root
  std::vector<std::int64_t> depth;          // depth[root] = 0
  std::vector<std::uint64_t> subtree_size;  // subtree_size[root] = n
  std::vector<std::uint64_t> preorder;      // traversal numbering; root = 0
};

/// Computes parent / depth / subtree size of every vertex of the tree
/// `edges` (n-1 undirected edges) rooted at `root`, via an Euler tour and
/// list ranking.  Host-facing API: takes and returns host vectors; all
/// measured work runs through the executor.
template <class Exec>
TreeFunctions mo_tree_functions(Exec& ex, const EdgeList& tree,
                                std::uint64_t root) {
  const std::uint64_t n = tree.n;
  TreeFunctions out;
  out.parent.assign(n, root);
  out.depth.assign(n, 0);
  out.subtree_size.assign(n, 1);
  out.preorder.assign(n, 0);
  if (n <= 1 || tree.edges.empty()) {
    if (n >= 1) {
      out.parent[root] = root;
      out.subtree_size[root] = n;
    }
    return out;
  }
  const std::uint64_t m = 2 * tree.edges.size();

  // Arc array, sorted by (src, dst) -- this groups each vertex's arcs.
  auto arcs_buf = ex.template make_buf<std::uint64_t>(m);
  auto arcs = arcs_buf.ref();
  for (std::uint64_t e = 0; e < tree.edges.size(); ++e) {
    arcs_buf.raw()[2 * e] = pack_arc(tree.edges[e].first, tree.edges[e].second);
    arcs_buf.raw()[2 * e + 1] =
        pack_arc(tree.edges[e].second, tree.edges[e].first);
  }
  spms_sort(ex, arcs);

  // first_arc[v]: index of v's first outgoing arc (kNil if none -- cannot
  // happen in a connected tree).
  auto first_buf = ex.template make_buf<std::uint64_t>(n);
  auto first = first_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1,
                       [&](std::uint64_t v) { first.store(v, kNil); });
  sched::cgc_pfor_each(ex, 0, m, 1, [&](std::uint64_t a) {
    const std::uint64_t s = arc_src(arcs.load(a));
    if (a == 0 || arc_src(arcs.load(a - 1)) != s) first.store(s, a);
  });

  // twin[a]: index of the reversed arc, found by sorting (reversed, index)
  // records -- position j of the sorted records aligns with arc j.
  struct TwinRec {
    std::uint64_t key, idx;
    bool operator<(const TwinRec& o) const { return key < o.key; }
  };
  auto twin_rec_buf = ex.template make_buf<TwinRec>(m);
  auto twin_recs = twin_rec_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
    const std::uint64_t arc = arcs.load(a);
    twin_recs.store(a, TwinRec{pack_arc(arc_dst(arc), arc_src(arc)), a});
  });
  spms_sort(ex, twin_recs);
  auto twin_buf = ex.template make_buf<std::uint64_t>(m);
  auto twin = twin_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 1, [&](std::uint64_t a) {
    twin.store(a, twin_recs.load(a).idx);
  });

  // Euler tour successor: succ[a] = arc after twin(a) around its source.
  auto succ_buf = ex.template make_buf<std::uint64_t>(m);
  auto succ = succ_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
    const std::uint64_t t = twin.load(a);
    const std::uint64_t v = arc_src(arcs.load(t));
    std::uint64_t nxt;
    if (t + 1 < m && arc_src(arcs.load(t + 1)) == v) {
      nxt = t + 1;
    } else {
      nxt = first.load(v);
    }
    succ.store(a, nxt);
  });
  // Break the circuit into a list starting at the root's first arc.
  const std::uint64_t start = first.load(root);
  sched::cgc_pfor_each(ex, 0, m, 1, [&](std::uint64_t a) {
    if (succ.load(a) == start) succ.store(a, kNil);
  });

  // pred[] by routing (succ[a] -> a) through a sort.
  struct PredRec {
    std::uint64_t key, idx;
    bool operator<(const PredRec& o) const {
      return key != o.key ? key < o.key : idx < o.idx;
    }
  };
  auto pred_rec_buf = ex.template make_buf<PredRec>(m);
  auto pred_recs = pred_rec_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
    pred_recs.store(a, PredRec{succ.load(a), a});
  });
  spms_sort(ex, pred_recs);
  auto pred_buf = ex.template make_buf<std::uint64_t>(m);
  auto pred = pred_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 1,
                       [&](std::uint64_t a) { pred.store(a, kNil); });
  sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t r) {
    const PredRec rec = pred_recs.load(r);
    if (rec.key != kNil) pred.store(rec.key, rec.idx);
  });

  // Unit-weight ranks give tour positions; +-1 weights give depths.
  auto rank_buf = ex.template make_buf<std::uint64_t>(m);
  auto rank = rank_buf.ref();
  mo_list_rank(ex, succ, pred, rank);  // rank = arcs after a in the tour
  auto pos = [&](std::uint64_t a) { return (m - 1) - rank.load(a); };

  // Forward arc (parent -> child) iff it precedes its twin on the tour.
  auto fwd_buf = ex.template make_buf<std::uint64_t>(m);
  auto fwd = fwd_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
    fwd.store(a, rank.load(a) > rank.load(twin.load(a)) ? 1 : 0);
  });

  // Weighted ranks with +1 on forward arcs, -1 (mod 2^64) on backward arcs.
  auto wlen_buf = ex.template make_buf<std::uint64_t>(m);
  auto wdist_buf = ex.template make_buf<std::uint64_t>(m);
  auto wlen = wlen_buf.ref(), wdist = wdist_buf.ref();
  sched::cgc_pfor_each(ex, 0, m, 1, [&](std::uint64_t a) {
    wlen.store(a, fwd.load(a) ? 1 : ~0ull);
  });
  mo_list_rank_weighted(ex, succ, pred, wlen, wdist);

  // Extract per-vertex results from the forward arcs.
  sched::cgc_pfor_each(ex, 0, m, 4, [&](std::uint64_t a) {
    if (!fwd.load(a)) return;
    const std::uint64_t arc = arcs.load(a);
    const std::uint64_t p = arc_src(arc), c = arc_dst(arc);
    out.parent[c] = p;
    // Inclusive prefix of the +-1 weights through arc a.  The weighted dist
    // excludes the tour's last arc (always backward, weight -1), and the
    // +-1 weights sum to zero overall, so:
    //   prefix(a) = 0 - (dist(a) - len(a) + (-1)) = -dist(a) + len(a) + 1.
    const std::int64_t inclusive = static_cast<std::int64_t>(
        0 - wdist.load(a) + wlen.load(a) + 1);
    out.depth[c] = inclusive;
    out.subtree_size[c] = (pos(twin.load(a)) - pos(a) + 1) / 2;
    // Traversal (preorder) numbering: v is first visited at its forward
    // arc; forward arcs in the prefix = (prefix length + signed prefix)/2.
    out.preorder[c] =
        (pos(a) + 1 + static_cast<std::uint64_t>(inclusive)) / 2;
  });
  out.parent[root] = root;
  out.depth[root] = 0;
  out.subtree_size[root] = n;
  out.preorder[root] = 0;
  return out;
}

// ---------------------------------------------------------------------------
// Connected components.
// ---------------------------------------------------------------------------

/// MO connected components: returns comp[v] = smallest-rooted representative
/// found by hooking; vertices in the same component share a label.
template <class Exec>
std::vector<std::uint64_t> mo_connected_components(Exec& ex,
                                                   const EdgeList& g) {
  const std::uint64_t n = g.n;
  auto comp_buf = ex.template make_buf<std::uint64_t>(n);
  auto comp = comp_buf.ref();
  sched::cgc_pfor_each(ex, 0, n, 1, [&](std::uint64_t v) { comp.store(v, v); });
  if (g.edges.empty() || n == 0) return comp_buf.raw();

  // Current arc multiset (both directions), shrinking across rounds.
  std::vector<std::uint64_t> host_arcs;
  host_arcs.reserve(2 * g.edges.size());
  for (auto [u, v] : g.edges) {
    if (u == v) continue;
    host_arcs.push_back(pack_arc(u, v));
    host_arcs.push_back(pack_arc(v, u));
  }

  const std::uint64_t max_rounds = 2 * util::ceil_log2(n | 1) + 4;
  for (std::uint64_t round = 0;
       !host_arcs.empty() && round < max_rounds; ++round) {
    const std::uint64_t m = host_arcs.size();
    auto arcs_buf = ex.template make_buf<std::uint64_t>(m);
    arcs_buf.raw() = host_arcs;
    auto arcs = arcs_buf.ref();
    spms_sort(ex, arcs);

    // Hook: parent[v] = min neighbor (first arc of each src group).
    auto parent_buf = ex.template make_buf<std::uint64_t>(n);
    auto parent = parent_buf.ref();
    sched::cgc_pfor_each(ex, 0, n, 1,
                         [&](std::uint64_t v) { parent.store(v, v); });
    sched::cgc_pfor_each(ex, 0, m, 1, [&](std::uint64_t a) {
      const std::uint64_t arc = arcs.load(a);
      const std::uint64_t s = arc_src(arc);
      if (a == 0 || arc_src(arcs.load(a - 1)) != s) {
        parent.store(s, arc_dst(arc));
      }
    });

    // Break the unique 2-cycle of each pseudo-tree at its minimum.
    auto pp_buf = ex.template make_buf<std::uint64_t>(n);
    auto pp = pp_buf.ref();
    mo_pull(ex, parent, parent, pp, kNil);
    sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
      // In a 2-cycle (u <-> v), the smaller endpoint becomes the root; the
      // larger keeps pointing at it.
      if (pp.load(v) == v && v < parent.load(v)) parent.store(v, v);
    });

    // Pointer jumping to the roots (doubling; early exit on fixpoint).
    for (std::uint64_t it = 0; it <= util::ceil_log2(n | 1); ++it) {
      mo_pull(ex, parent, parent, pp, kNil);
      bool changed = false;
      sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
        if (parent.load(v) != pp.load(v)) {
          parent.store(v, pp.load(v));
          changed = true;
        }
      });
      if (!changed) break;
    }

    // Fold this round's hooks into the global labels.
    auto newcomp_buf = ex.template make_buf<std::uint64_t>(n);
    auto newcomp = newcomp_buf.ref();
    mo_pull(ex, comp, parent, newcomp, kNil);
    sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
      comp.store(v, newcomp.load(v));
    });

    // Contract: relabel arc endpoints by their roots, drop self-loops,
    // sort and deduplicate.
    auto src_buf = ex.template make_buf<std::uint64_t>(m);
    auto dst_buf = ex.template make_buf<std::uint64_t>(m);
    auto nsrc_buf = ex.template make_buf<std::uint64_t>(m);
    auto ndst_buf = ex.template make_buf<std::uint64_t>(m);
    auto src = src_buf.ref(), dst = dst_buf.ref(), nsrc = nsrc_buf.ref(),
         ndst = ndst_buf.ref();
    sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
      const std::uint64_t arc = arcs.load(a);
      src.store(a, arc_src(arc));
      dst.store(a, arc_dst(arc));
    });
    mo_pull(ex, src, parent, nsrc, kNil);
    mo_pull(ex, dst, parent, ndst, kNil);
    sched::cgc_pfor_each(ex, 0, m, 2, [&](std::uint64_t a) {
      arcs.store(a, pack_arc(nsrc.load(a), ndst.load(a)));
    });
    spms_sort(ex, arcs);
    // Dedupe + self-loop removal back onto the host for the next round.
    host_arcs.clear();
    for (std::uint64_t a = 0; a < m; ++a) {
      const std::uint64_t arc = arcs.load(a);
      if (arc_src(arc) == arc_dst(arc)) continue;
      if (!host_arcs.empty() && host_arcs.back() == arc) continue;
      host_arcs.push_back(arc);
    }
  }
  assert(host_arcs.empty() && "hooking must converge within 2 log n rounds");

  // Final label smoothing: components hooked across rounds may need one
  // last jump chain (labels compose across rounds).
  auto tmp_buf = ex.template make_buf<std::uint64_t>(n);
  auto tmp = tmp_buf.ref();
  for (std::uint64_t it = 0; it <= util::ceil_log2(n | 1); ++it) {
    mo_pull(ex, comp, comp, tmp, kNil);
    bool changed = false;
    sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t v) {
      if (comp.load(v) != tmp.load(v)) {
        comp.store(v, tmp.load(v));
        changed = true;
      }
    });
    if (!changed) break;
  }
  return comp_buf.raw();
}

/// Sequential BFS baseline (correctness oracle, zero parallelism).
inline std::vector<std::uint64_t> cc_bfs_reference(const EdgeList& g) {
  std::vector<std::vector<std::uint32_t>> adj(g.n);
  for (auto [u, v] : g.edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<std::uint64_t> comp(g.n, kNil);
  std::vector<std::uint32_t> stack;
  for (std::uint64_t s = 0; s < g.n; ++s) {
    if (comp[s] != kNil) continue;
    comp[s] = s;
    stack.push_back(static_cast<std::uint32_t>(s));
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::uint32_t v : adj[u]) {
        if (comp[v] == kNil) {
          comp[v] = s;
          stack.push_back(v);
        }
      }
    }
  }
  return comp;
}

}  // namespace obliv::algo
