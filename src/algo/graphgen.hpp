// Workload generators for the SpM-DV and graph experiments: sparse matrices
// whose support graphs satisfy edge separator theorems, and the separator
// tree reordering Theorem 4 assumes, plus random linked lists for list
// ranking.
//
//   * 2-D grid (mesh) graphs satisfy an n^(1/2)-edge separator theorem
//     (eps = 1/2), with the separator realized by alternating-axis geometric
//     bisection -- the same recursive cuts define the separator-tree order.
//   * Trees satisfy an O(1)-edge separator theorem via centroid edges
//     (eps = 0); we implement centroid-edge decomposition for the order.
//   * A random (expander-like) matrix deliberately violates every separator
//     theorem -- the negative control for the Theorem 4 bench.
//
// Assembly is O(nnz + n) with exact-size buffers: row lengths are counted
// first, A_v is allocated once, every entry is written straight to its
// final slot, and each row is then put in column order by a stable
// insertion sort (rows hold a handful of entries).  The grid generators fill rows
// directly -- in separator order for grid_matrix_reordered -- with no
// intermediate matrix; matrix_from_triples counting-sorts by row and sums
// duplicate (row, col) entries in input order, so the result is fully
// determined by the input sequence.  Out-of-range indices and
// non-permutation orders throw obliv::Error(kInvalidArgument) before any
// entry is written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algo/listrank.hpp"
#include "algo/spmdv.hpp"
#include "fault/status.hpp"
#include "util/rng.hpp"

namespace obliv::algo {

/// One (row, col, val) input entry for matrix_from_triples.
struct SpmTriple {
  std::uint64_t row;
  std::uint64_t col;
  double val;
};

namespace detail {

/// Sorts one row's entries by column with a stable insertion sort: equal
/// columns keep their input order.  Generator rows hold a handful of
/// entries (<= 5 for a grid, about log2 n for a random tree).
inline void sort_row(SpmEntry* first, SpmEntry* last) {
  const std::ptrdiff_t len = last - first;
  for (std::ptrdiff_t i = 1; i < len; ++i) {
    const SpmEntry e = first[i];
    std::ptrdiff_t j = i;
    for (; j > 0 && first[j - 1].col > e.col; --j) first[j] = first[j - 1];
    first[j] = e;
  }
}

}  // namespace detail

/// Assembles an n x n SparseMatrix from (row, col, val) triples in any
/// order.  Duplicate (row, col) entries are summed in input order.  Throws
/// obliv::Error(kInvalidArgument) if a row or column is >= n.
inline SparseMatrix matrix_from_triples(std::uint64_t n,
                                        const std::vector<SpmTriple>& triples) {
  SparseMatrix m;
  m.n = n;
  m.a0.assign(n + 1, 0);
  for (const SpmTriple& t : triples) {
    if (t.row >= n || t.col >= n) {
      throw Error(ErrorCode::kInvalidArgument,
                  "matrix_from_triples: entry (" + std::to_string(t.row) +
                      ", " + std::to_string(t.col) +
                      ") out of range for n = " + std::to_string(n));
    }
    ++m.a0[t.row + 1];
  }
  std::partial_sum(m.a0.begin(), m.a0.end(), m.a0.begin());
  // Counting-sort scatter with a0[row] as the row's write cursor; afterwards
  // a0[i] holds row i's end (row i + 1's start), so move each up one slot.
  m.av.resize(triples.size());
  for (const SpmTriple& t : triples) m.av[m.a0[t.row]++] = {t.col, t.val};
  for (std::uint64_t i = n; i > 0; --i) m.a0[i] = m.a0[i - 1];
  m.a0[0] = 0;
  // Sort each row, then sum runs of equal columns, compacting in place.
  std::uint64_t w = 0, lo = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t hi = m.a0[i + 1];
    detail::sort_row(m.av.data() + lo, m.av.data() + hi);
    for (std::uint64_t t = lo; t < hi; ++t) {
      if (w > m.a0[i] && m.av[w - 1].col == m.av[t].col) {
        m.av[w - 1].val += m.av[t].val;
      } else {
        m.av[w++] = m.av[t];
      }
    }
    m.a0[i + 1] = w;
    lo = hi;
  }
  m.av.resize(w);
  m.av.shrink_to_fit();
  return m;
}

namespace detail {

/// inv[order[p]] = p; throws unless `order` is a permutation of [0, n).
inline std::vector<std::uint64_t> inverse_order(
    const std::vector<std::uint64_t>& order, std::uint64_t n) {
  if (order.size() != n) {
    throw Error(ErrorCode::kInvalidArgument,
                "permute_matrix: order has " + std::to_string(order.size()) +
                    " entries, matrix has " + std::to_string(n) + " rows");
  }
  std::vector<std::uint64_t> inv(n, n);
  for (std::uint64_t p = 0; p < n; ++p) {
    if (order[p] >= n || inv[order[p]] != n) {
      throw Error(ErrorCode::kInvalidArgument,
                  "permute_matrix: order is not a permutation (entry " +
                      std::to_string(p) + " = " + std::to_string(order[p]) +
                      ")");
    }
    inv[order[p]] = p;
  }
  return inv;
}

}  // namespace detail

/// Applies permutation `order` (order[new_index] = old_index) to rows and
/// columns of `m` symmetrically.  Throws obliv::Error(kInvalidArgument)
/// if `m` is not valid() or `order` is not a permutation of size m.n.
inline SparseMatrix permute_matrix(const SparseMatrix& m,
                                   const std::vector<std::uint64_t>& order) {
  if (!m.valid()) {
    throw Error(ErrorCode::kInvalidArgument, "permute_matrix: invalid matrix");
  }
  const std::vector<std::uint64_t> inv = detail::inverse_order(order, m.n);
  SparseMatrix out;
  out.n = m.n;
  out.a0.assign(m.n + 1, 0);
  for (std::uint64_t p = 0; p < m.n; ++p) {
    out.a0[p + 1] = out.a0[p] + (m.a0[order[p] + 1] - m.a0[order[p]]);
  }
  out.av.resize(m.nnz());
  for (std::uint64_t p = 0; p < m.n; ++p) {
    SpmEntry* row = out.av.data() + out.a0[p];
    SpmEntry* e = row;
    for (std::uint64_t t = m.a0[order[p]]; t < m.a0[order[p] + 1]; ++t) {
      *e++ = {inv[m.av[t].col], m.av[t].val};
    }
    detail::sort_row(row, e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// 2-D grid graphs (eps = 1/2).
// ---------------------------------------------------------------------------

namespace detail {

/// Fills the side x side 5-point mesh with vertex u stored as row/column
/// to_new(u).  Values are drawn in row-major vertex order -- diagonal, then
/// the down, up, right, left couplings -- so every vertex order sees the
/// same values.
template <class Map>
SparseMatrix grid_fill(std::uint64_t side, std::uint64_t seed, Map to_new) {
  const std::uint64_t n = side * side;
  SparseMatrix m;
  m.n = n;
  m.a0.assign(n + 1, 0);
  for (std::uint64_t r = 0; r < side; ++r) {
    for (std::uint64_t c = 0; c < side; ++c) {
      m.a0[to_new(r * side + c) + 1] = 1 + (r + 1 < side) + (r > 0) +
                                       (c + 1 < side) + (c > 0);
    }
  }
  std::partial_sum(m.a0.begin(), m.a0.end(), m.a0.begin());
  m.av.resize(m.a0[n]);
  util::Xoshiro256 rng(seed);
  for (std::uint64_t r = 0; r < side; ++r) {
    for (std::uint64_t c = 0; c < side; ++c) {
      const std::uint64_t u = r * side + c;
      SpmEntry* row = m.av.data() + m.a0[to_new(u)];
      SpmEntry* e = row;
      *e++ = {to_new(u), 4.0 + rng.uniform()};
      auto couple = [&](std::uint64_t v) {
        const double w = -1.0 + 0.1 * rng.uniform();
        *e++ = {to_new(v), w};
      };
      if (r + 1 < side) couple((r + 1) * side + c);
      if (r > 0) couple((r - 1) * side + c);
      if (c + 1 < side) couple(r * side + c + 1);
      if (c > 0) couple(r * side + c - 1);
      sort_row(row, e);
    }
  }
  return m;
}

}  // namespace detail

/// side x side 5-point mesh: diagonal plus 4-neighbor couplings, random
/// values.  Vertex id = r * side + c (row-major).
inline SparseMatrix grid_matrix(std::uint64_t side, std::uint64_t seed = 1) {
  return detail::grid_fill(side, seed, [](std::uint64_t u) { return u; });
}

namespace detail {

inline void grid_bisect(std::uint64_t side, std::uint64_t r0, std::uint64_t c0,
                        std::uint64_t h, std::uint64_t w,
                        std::vector<std::uint64_t>& out) {
  if (h == 0 || w == 0) return;
  if (h * w == 1) {
    out.push_back(r0 * side + c0);
    return;
  }
  // Cut the longer axis: the crossing edges number min(h, w) <= sqrt(area),
  // realizing the n^(1/2)-edge separator theorem.
  if (h >= w) {
    grid_bisect(side, r0, c0, h / 2, w, out);
    grid_bisect(side, r0 + h / 2, c0, h - h / 2, w, out);
  } else {
    grid_bisect(side, r0, c0, h, w / 2, out);
    grid_bisect(side, r0, c0 + w / 2, h, w - w / 2, out);
  }
}

}  // namespace detail

/// Separator-tree (recursive geometric bisection) vertex order for the grid:
/// order[new_index] = old (row-major) vertex id.
inline std::vector<std::uint64_t> grid_separator_order(std::uint64_t side) {
  std::vector<std::uint64_t> out;
  out.reserve(side * side);
  detail::grid_bisect(side, 0, 0, side, side, out);
  return out;
}

/// grid_matrix reordered by its separator tree -- the Theorem 4 input.
/// Built straight into separator order: equal to
/// permute_matrix(grid_matrix(side, seed), grid_separator_order(side)).
inline SparseMatrix grid_matrix_reordered(std::uint64_t side,
                                          std::uint64_t seed = 1) {
  const std::vector<std::uint64_t> inv =
      detail::inverse_order(grid_separator_order(side), side * side);
  return detail::grid_fill(side, seed,
                           [&](std::uint64_t u) { return inv[u]; });
}

// ---------------------------------------------------------------------------
// Random trees (eps = 0: O(1) edge separators via centroid edges).
// ---------------------------------------------------------------------------

/// Random tree on n vertices (random attachment), as adjacency + diagonal.
inline SparseMatrix tree_matrix(std::uint64_t n, std::uint64_t seed = 1,
                                std::vector<std::uint64_t>* parent_out =
                                    nullptr) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> parent(n, 0);
  std::vector<SpmTriple> triples;
  triples.reserve(3 * n);
  for (std::uint64_t u = 0; u < n; ++u) {
    triples.push_back({u, u, 2.0 + rng.uniform()});
    if (u == 0) continue;
    const std::uint64_t p = rng.below(u);
    parent[u] = p;
    const double w = -0.5 + 0.1 * rng.uniform();
    triples.push_back({u, p, w});
    triples.push_back({p, u, w});
  }
  if (parent_out) *parent_out = std::move(parent);
  return matrix_from_triples(n, triples);
}

namespace detail {

struct TreeSep {
  const std::vector<std::vector<std::uint32_t>>& adj;
  std::vector<char> removed;
  std::vector<std::uint32_t> size;
  std::vector<std::uint64_t> out;

  std::uint32_t compute_sizes(std::uint32_t u, std::uint32_t parent) {
    std::uint32_t s = 1;
    for (std::uint32_t v : adj[u]) {
      if (v == parent || removed[v]) continue;
      s += compute_sizes(v, u);
    }
    size[u] = s;
    return s;
  }

  /// Finds the centroid of the component containing u.
  std::uint32_t centroid(std::uint32_t u) {
    const std::uint32_t total = compute_sizes(u, u);
    std::uint32_t cur = u, parent = u;
    for (;;) {
      std::uint32_t heavy = cur;
      for (std::uint32_t v : adj[cur]) {
        if (v == parent || removed[v]) continue;
        if (size[v] * 2 > total) {
          heavy = v;
          break;
        }
      }
      if (heavy == cur) return cur;
      parent = cur;
      cur = heavy;
    }
  }

  void decompose(std::uint32_t u) {
    const std::uint32_t c = centroid(u);
    // Emit the centroid's subcomponents contiguously; the centroid itself
    // separates them with O(deg) = separator edges.
    removed[c] = 1;
    out.push_back(c);
    for (std::uint32_t v : adj[c]) {
      if (!removed[v]) decompose(v);
    }
  }
};

}  // namespace detail

/// Centroid-decomposition vertex order for a tree given parent links.
inline std::vector<std::uint64_t> tree_separator_order(
    const std::vector<std::uint64_t>& parent) {
  const std::uint64_t n = parent.size();
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint64_t u = 1; u < n; ++u) {
    adj[u].push_back(static_cast<std::uint32_t>(parent[u]));
    adj[parent[u]].push_back(static_cast<std::uint32_t>(u));
  }
  detail::TreeSep sep{adj, std::vector<char>(n, 0),
                      std::vector<std::uint32_t>(n, 0), {}};
  sep.out.reserve(n);
  if (n > 0) sep.decompose(0);
  return sep.out;
}

/// tree_matrix reordered by centroid decomposition.
inline SparseMatrix tree_matrix_reordered(std::uint64_t n,
                                          std::uint64_t seed = 1) {
  std::vector<std::uint64_t> parent;
  SparseMatrix m = tree_matrix(n, seed, &parent);
  return permute_matrix(m, tree_separator_order(parent));
}

// ---------------------------------------------------------------------------
// Negative control: random sparse matrix (no separator structure).
// ---------------------------------------------------------------------------

/// n x n matrix with `per_row` uniformly random off-diagonals per row plus
/// the diagonal: support graph is expander-like, violating every
/// n^eps-separator theorem with eps < 1.
inline SparseMatrix random_matrix(std::uint64_t n, std::uint64_t per_row = 4,
                                  std::uint64_t seed = 1) {
  util::Xoshiro256 rng(seed);
  std::vector<SpmTriple> triples;
  triples.reserve(n * (per_row + 1));
  for (std::uint64_t i = 0; i < n; ++i) {
    triples.push_back({i, i, 4.0});
    for (std::uint64_t t = 0; t < per_row; ++t) {
      const std::uint64_t j = rng.below(n);
      triples.push_back({i, j, rng.uniform() - 0.5});
    }
  }
  return matrix_from_triples(n, triples);
}

// ---------------------------------------------------------------------------
// Random linked lists (list ranking inputs).
// ---------------------------------------------------------------------------

/// The node visited t-th by a uniformly random list over n nodes, for t in
/// [0, n): a Fisher-Yates shuffle of 0..n-1 that draws rng.below(i) for i
/// from n down to 2.
inline std::vector<std::uint64_t> random_list_order(std::uint64_t n,
                                                    util::Xoshiro256& rng) {
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// Links the nodes into one list visiting `order` front to back: succ and
/// pred get order.size() entries each, kNil past either end.
inline void link_list(const std::vector<std::uint64_t>& order,
                      std::vector<std::uint64_t>& succ,
                      std::vector<std::uint64_t>& pred) {
  succ.assign(order.size(), kNil);
  pred.assign(order.size(), kNil);
  for (std::uint64_t t = 0; t + 1 < order.size(); ++t) {
    succ[order[t]] = order[t + 1];
    pred[order[t + 1]] = order[t];
  }
}

}  // namespace obliv::algo
