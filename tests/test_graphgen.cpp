#include "algo/graphgen.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/status.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

/// FNV-1a over the matrix's n, A_0 and the raw A_v bytes: any change to an
/// offset, a column or a single bit of a value changes the hash.
std::uint64_t fingerprint(const SparseMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  mix(&m.n, sizeof m.n);
  mix(m.a0.data(), m.a0.size() * sizeof(std::uint64_t));
  mix(m.av.data(), m.av.size() * sizeof(SpmEntry));
  return h;
}

std::vector<std::uint64_t> scrambled_order(std::uint64_t n,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

void expect_invalid_argument(auto&& fn) {
  try {
    fn();
    ADD_FAILURE() << "expected obliv::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

// Hashes recorded from the sort-based assembly the generators replaced
// (libstdc++, x86-64): the O(nnz) builders must reproduce every matrix
// bit for bit.
TEST(GraphgenGolden, GridFingerprints) {
  struct Golden {
    std::uint64_t side, seed, grid, reordered;
  };
  const Golden goldens[] = {
      {1, 1, 0xed2f8744b003e492ull, 0xed2f8744b003e492ull},
      {2, 1, 0x0619164fbbc63f2dull, 0x0619164fbbc63f2dull},
      {3, 1, 0x1701fba812d49b5full, 0x7511393c1710f54full},
      {13, 1, 0x1c9c2749b98b6895ull, 0x07cd7188f4ab456dull},
      {64, 1, 0xf6e65004ad0bec89ull, 0x1ca3d9483eeb95c3ull},
      {1024, 1, 0x34d90eeb8e73a218ull, 0xf45f86835f8c8e83ull},
      {1, 7, 0x4640a5fa1531480cull, 0x4640a5fa1531480cull},
      {2, 7, 0xd461b4360c173c5full, 0xd461b4360c173c5full},
      {3, 7, 0x2cf5215a055de31eull, 0xcf9590f59ea01ffeull},
      {13, 7, 0x2562ac2d651a6e51ull, 0x3804d0de7f072475ull},
      {64, 7, 0x7c185b31a74cc75aull, 0x97f89ce20b7d6740ull},
      {1024, 7, 0x0a64ec016b1add25ull, 0x88d47fada786ac62ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("side " + std::to_string(g.side) + " seed " +
                 std::to_string(g.seed));
    EXPECT_EQ(fingerprint(grid_matrix(g.side, g.seed)), g.grid);
    EXPECT_EQ(fingerprint(grid_matrix_reordered(g.side, g.seed)),
              g.reordered);
  }
}

TEST(GraphgenGolden, TreeRandomAndPermuteFingerprints) {
  EXPECT_EQ(fingerprint(tree_matrix_reordered(300, 3)),
            0xabbc7c15d6aa5051ull);
  EXPECT_EQ(fingerprint(random_matrix(500, 6)), 0x37500a7252f863a1ull);
  const SparseMatrix g = grid_matrix(13, 7);
  EXPECT_EQ(fingerprint(permute_matrix(g, scrambled_order(g.n, 5))),
            0x60f73e3a59213124ull);
}

TEST(Graphgen, DirectReorderedFillEqualsPermutedGrid) {
  for (std::uint64_t side = 0; side <= 20; ++side) {
    const SparseMatrix direct = grid_matrix_reordered(side, side + 3);
    const SparseMatrix twostep =
        permute_matrix(grid_matrix(side, side + 3), grid_separator_order(side));
    ASSERT_TRUE(direct.valid()) << side;
    EXPECT_EQ(fingerprint(direct), fingerprint(twostep)) << side;
  }
}

TEST(Graphgen, BuffersAreExactSize) {
  const SparseMatrix g = grid_matrix_reordered(9);
  EXPECT_EQ(g.av.capacity(), g.av.size());
  EXPECT_EQ(g.nnz(), 9u * 9u * 5u - 4u * 9u);
  const SparseMatrix r = random_matrix(200, 5, 2);
  EXPECT_EQ(r.av.capacity(), r.av.size());
}

TEST(MatrixFromTriples, UnsortedInputWithEmptyRows) {
  // Rows 1 and 3 are empty; rows arrive out of order, columns reversed.
  const SparseMatrix m = matrix_from_triples(
      5, {{4, 0, 1.0}, {2, 4, 2.0}, {0, 3, 3.0}, {2, 1, 4.0}, {0, 0, 5.0},
          {4, 4, 6.0}, {2, 2, 7.0}});
  ASSERT_TRUE(m.valid());
  EXPECT_EQ(m.a0, (std::vector<std::uint64_t>{0, 2, 2, 5, 5, 7}));
  const std::uint64_t cols[] = {0, 3, 1, 2, 4, 0, 4};
  const double vals[] = {5.0, 3.0, 4.0, 7.0, 2.0, 1.0, 6.0};
  for (std::size_t t = 0; t < m.nnz(); ++t) {
    EXPECT_EQ(m.av[t].col, cols[t]) << t;
    EXPECT_EQ(m.av[t].val, vals[t]) << t;
  }
}

TEST(MatrixFromTriples, EmptyShapes) {
  const SparseMatrix zero = matrix_from_triples(0, {});
  EXPECT_TRUE(zero.valid());
  EXPECT_EQ(zero.a0, std::vector<std::uint64_t>{0});
  EXPECT_EQ(zero.nnz(), 0u);
  const SparseMatrix none = matrix_from_triples(4, {});
  EXPECT_TRUE(none.valid());
  EXPECT_EQ(none.a0, (std::vector<std::uint64_t>(5, 0)));
  EXPECT_TRUE(grid_matrix(0).valid());
  EXPECT_TRUE(grid_matrix_reordered(0).valid());
  EXPECT_TRUE(tree_matrix_reordered(0).valid());
  EXPECT_TRUE(random_matrix(0).valid());
  EXPECT_TRUE(permute_matrix(zero, {}).valid());
}

TEST(MatrixFromTriples, DuplicatesSumInInputOrder) {
  // Each run of duplicates must come out as the left-to-right sum of its
  // input sequence, whatever rows surround it and however rows interleave.
  const double big = 1e16;
  const double seqs[][3] = {
      {big, 1.0, -big}, {big, -big, 1.0}, {1.0, big, -big}};
  for (const auto& s : seqs) {
    const double expect = (s[0] + s[1]) + s[2];
    const SparseMatrix m = matrix_from_triples(
        3, {{2, 2, 9.0}, {1, 2, s[0]}, {0, 1, 8.0}, {1, 0, 7.0}, {1, 2, s[1]},
            {2, 0, 6.0}, {1, 2, s[2]}, {1, 1, 5.0}});
    ASSERT_TRUE(m.valid());
    ASSERT_EQ(m.nnz(), 6u);
    EXPECT_EQ(m.a0, (std::vector<std::uint64_t>{0, 1, 4, 6}));
    EXPECT_EQ(m.av[3].col, 2u);
    EXPECT_EQ(std::memcmp(&m.av[3].val, &expect, sizeof expect), 0)
        << m.av[3].val << " vs " << expect;
    EXPECT_EQ(m.av.capacity(), m.av.size());
  }
  // The orders really give different bits, so a reordering would show.
  EXPECT_NE((big + 1.0) + -big, (big + -big) + 1.0);
}

TEST(MatrixFromTriples, RejectsOutOfRangeIndices) {
  expect_invalid_argument([] { matrix_from_triples(3, {{3, 0, 1.0}}); });
  expect_invalid_argument([] { matrix_from_triples(3, {{0, 3, 1.0}}); });
  expect_invalid_argument(
      [] { matrix_from_triples(3, {{0, 0, 1.0}, {~0ull, 1, 1.0}}); });
  expect_invalid_argument([] { matrix_from_triples(0, {{0, 0, 1.0}}); });
}

TEST(PermuteMatrix, RejectsNonPermutations) {
  const SparseMatrix g = grid_matrix(3);
  expect_invalid_argument([&] { permute_matrix(g, {0, 1, 2}); });  // short
  std::vector<std::uint64_t> dup = scrambled_order(9, 1);
  dup[4] = dup[5];
  expect_invalid_argument([&] { permute_matrix(g, dup); });
  std::vector<std::uint64_t> big = scrambled_order(9, 2);
  big[0] = 9;
  expect_invalid_argument([&] { permute_matrix(g, big); });
  SparseMatrix bad = g;
  bad.av[0].col = 9;  // column out of range
  expect_invalid_argument([&] { permute_matrix(bad, scrambled_order(9, 3)); });
}

TEST(PermuteMatrix, ScrambleRoundTrips) {
  const SparseMatrix t = tree_matrix(200, 4);
  const auto order = scrambled_order(t.n, 6);
  std::vector<std::uint64_t> inv(t.n);
  for (std::uint64_t p = 0; p < t.n; ++p) inv[order[p]] = p;
  const SparseMatrix there = permute_matrix(t, order);
  ASSERT_TRUE(there.valid());
  const SparseMatrix back = permute_matrix(there, inv);
  EXPECT_EQ(fingerprint(back), fingerprint(t));
}

}  // namespace
}  // namespace obliv::algo
