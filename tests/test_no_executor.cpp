#include "no/executor.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "util/rng.hpp"

namespace obliv::no {
namespace {

TEST(NoExecutor, BlockDistributionOwnership) {
  NoMachine mach(8, {{8, 1}});
  NoExecutor ex(&mach);
  auto buf = ex.make_buf<std::uint64_t>(64);
  auto ref = buf.ref();
  // 64 elements over 8 PEs: element i owned by PE i/8.
  EXPECT_EQ(ref.owner(0), 0u);
  EXPECT_EQ(ref.owner(7), 0u);
  EXPECT_EQ(ref.owner(8), 1u);
  EXPECT_EQ(ref.owner(63), 7u);
  // Slices keep the original layout.
  auto s = ref.slice(30, 10);
  EXPECT_EQ(s.owner(0), ref.owner(30));
  EXPECT_EQ(s.owner(9), ref.owner(39));
}

TEST(NoExecutor, OwnerMatchesLayoutInAnyAccessOrder) {
  // owner() caches the last owner's range; random order, uneven layouts
  // (PEs not dividing n, more PEs than elements) and slices must still
  // give floor(i * pes / n) exactly.
  util::Xoshiro256 rng(3);
  for (std::uint64_t pes : {1u, 3u, 8u, 13u}) {
    for (std::uint64_t n : {1u, 5u, 64u, 100u}) {
      NoMachine mach(pes, {{1, 1}});
      NoExecutor ex(&mach);
      auto buf = ex.make_buf<std::uint64_t>(n);
      const auto ref = buf.ref();
      const std::uint64_t off = n / 3;
      const auto s = ref.slice(off, n - off);
      for (int t = 0; t < 200; ++t) {
        const std::uint64_t i = rng.below(n);
        ASSERT_EQ(ref.owner(i), i * pes / n) << pes << " PEs, n=" << n;
        if (i >= off) {
          ASSERT_EQ(s.owner(i - off), i * pes / n);
        }
      }
    }
  }
}

TEST(NoExecutor, LocalAccessIsFree) {
  NoMachine mach(4, {{4, 1}});
  NoExecutor ex(&mach);
  auto buf = ex.make_buf<std::uint64_t>(4);
  // cur_pe is 0 outside constructs; element 0 is owned by PE 0.
  buf.ref().store(0, 7);
  mach.end_superstep();
  EXPECT_EQ(mach.communication(0), 0u);
  EXPECT_EQ(buf.raw()[0], 7u);
}

TEST(NoExecutor, RemoteReadAndWriteAreMessages) {
  NoMachine mach(4, {{4, 1}});
  NoExecutor ex(&mach);
  auto buf = ex.make_buf<std::uint64_t>(4);  // element i at PE i
  buf.raw()[3] = 9;
  auto ref = buf.ref();
  EXPECT_EQ(ref.load(3), 9u);   // read: PE3 -> PE0
  mach.end_superstep();         // h = 1 (one block at one processor)
  ref.store(2, 5);              // write: PE0 -> PE2
  mach.end_superstep();         // h = 1 again
  EXPECT_EQ(mach.communication(0), 2u);
  EXPECT_EQ(mach.total_message_words(), 2u);
}

TEST(NoExecutor, PforAlignsChunksWithOwners) {
  // A scan-like pfor over a buffer whose layout matches the loop split
  // should be (almost) communication-free.
  NoMachine mach(8, {{8, 4}});
  NoExecutor ex(&mach);
  const std::size_t n = 1024;
  auto buf = ex.make_buf<std::uint64_t>(n);
  ex.cgc_pfor(0, n, 1, [&](std::uint64_t lo, std::uint64_t hi) {
    auto ref = buf.ref();
    for (std::uint64_t k = lo; k < hi; ++k) ref.store(k, k);
  });
  mach.end_superstep();
  EXPECT_EQ(mach.communication(0), 0u);
  for (std::size_t k = 0; k < n; ++k) ASSERT_EQ(buf.raw()[k], k);
}

TEST(NoExecutor, GroupNarrowingConfinesSubtasks) {
  NoMachine mach(8, {{8, 1}});
  NoExecutor ex(&mach);
  std::vector<std::uint64_t> pes;
  ex.cgc_sb_pfor(4, 100, [&](std::uint64_t s) {
    pes.push_back(ex.current_pe());
  });
  // 4 subtasks over 8 PEs -> subgroups of 2, leaders 0, 2, 4, 6.
  ASSERT_EQ(pes.size(), 4u);
  EXPECT_EQ(pes[0], 0u);
  EXPECT_EQ(pes[1], 2u);
  EXPECT_EQ(pes[2], 4u);
  EXPECT_EQ(pes[3], 6u);
}

TEST(NoExecutor, MoAlgorithmsRunNetworkObliviously) {
  // The point of the unified executor: unmodified MO templates produce
  // correct results under message passing.
  NoMachine mach(16, {{4, 4}});
  NoExecutor ex(&mach);
  const std::size_t n = 3000;
  auto buf = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(3);
  std::vector<std::uint64_t> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.raw()[i] = rng.below(1u << 20);
    expect[i] = buf.raw()[i];
  }
  std::sort(expect.begin(), expect.end());
  algo::spms_sort(ex, buf.ref());
  mach.end_superstep();
  EXPECT_EQ(buf.raw(), expect);
  EXPECT_GT(mach.communication(0), 0u);  // sorting must communicate
  EXPECT_GT(mach.supersteps(), 1u);
}

TEST(NoExecutor, PrefixSumScalesAcrossFolds) {
  NoMachine mach(16, {{1, 4}, {16, 4}});
  NoExecutor ex(&mach);
  const std::size_t n = 1 << 12;
  auto buf = ex.make_buf<std::uint64_t>(n);
  for (auto& v : buf.raw()) v = 1;
  algo::mo_prefix_sum(ex, buf.ref());
  mach.end_superstep();
  EXPECT_EQ(buf.raw()[n - 1], n);
  // Computation on 16 processors must be well below the 1-processor fold.
  EXPECT_LT(mach.computation(1) * 4, mach.computation(0));
}

/// Every counter a NoMachine reports.
std::vector<double> machine_counters(const NoMachine& m) {
  std::vector<double> v{double(m.supersteps()),
                        double(m.total_message_words()), m.dbsp_time()};
  for (std::size_t f = 0; f < m.folds().size(); ++f) {
    v.push_back(double(m.communication(f)));
    v.push_back(double(m.computation(f)));
  }
  return v;
}

/// Runs the same random mix of run reads, run writes, pair reads and
/// copies on slices of two n-element buffers, once through the batched
/// accessors and once as per-element load/store loops, each PE of a
/// cgc_pfor executing the mix in its own superstep chunk.  Returns the
/// machine counters and the final contents of both buffers.
template <class T>
std::pair<std::vector<double>, std::vector<T>> accessor_mix(
    std::uint64_t pes, std::uint64_t n, bool batched) {
  NoMachine mach(pes, {{static_cast<std::uint32_t>(pes), 1}, {4, 3}, {2, 8}},
                 DbspConfig::mesh_like(8));
  NoExecutor ex(&mach);
  auto a = ex.make_buf<T>(n);
  auto b = ex.make_buf<T>(n);
  for (std::uint64_t i = 0; i < n; ++i) a.raw()[i] = T(i + 1);
  struct Op {
    int kind;
    std::uint64_t off_a, off_b, len;
  };
  std::vector<Op> ops;
  util::Xoshiro256 rng(pes * 1000 + n);
  for (int k = 0; k < 24; ++k) {
    const std::uint64_t len = rng.below(n + 1);
    ops.push_back({static_cast<int>(rng.below(4)), rng.below(n - len + 1),
                   rng.below(n - len + 1), len});
  }
  std::vector<T> tmp(n);
  ex.cgc_pfor(0, pes, 1, [&](std::uint64_t, std::uint64_t) {
    for (const Op& op : ops) {
      // A slice of a slice keeps the parent buffer's layout.
      const auto sa = a.ref().slice(op.off_a / 2, n - op.off_a / 2)
                          .slice(op.off_a - op.off_a / 2, op.len);
      const auto sb = b.ref().slice(op.off_b, op.len);
      switch (op.kind) {
        case 0:
          if (batched) {
            sa.load_run(0, op.len, tmp.data());
          } else {
            for (std::uint64_t i = 0; i < op.len; ++i) tmp[i] = sa.load(i);
          }
          break;
        case 1:
          if (batched) {
            sb.store_run(0, op.len, tmp.data());
          } else {
            for (std::uint64_t i = 0; i < op.len; ++i) sb.store(i, tmp[i]);
          }
          break;
        case 2:
          for (std::uint64_t i = 0; i + 1 < op.len; i += 2) {
            if (batched) {
              tmp[i] = sa.load2(i).second;
            } else {
              sa.load(i);
              tmp[i] = sa.load(i + 1);
            }
          }
          break;
        default:
          if (batched) {
            ex.copy(sb, sa);
          } else {
            for (std::uint64_t i = 0; i < op.len; ++i) sb.store(i, sa.load(i));
          }
      }
    }
  });
  mach.end_superstep();
  std::vector<T> out = a.raw();
  out.insert(out.end(), b.raw().begin(), b.raw().end());
  return {machine_counters(mach), out};
}

TEST(NoExecutor, RunAccessorsCountLikeElementLoops) {
  // Slices that start and end inside an owner's range, cross several
  // owners, or cover more PEs than elements (n < PEs): one declaration per
  // owner run must leave every counter where the element loop leaves it.
  for (std::uint64_t pes : {8u, 13u}) {
    for (std::uint64_t n : {5u, 100u, 997u}) {
      const auto [c64, v64] = accessor_mix<std::uint64_t>(pes, n, true);
      const auto [r64, w64] = accessor_mix<std::uint64_t>(pes, n, false);
      EXPECT_EQ(c64, r64) << pes << " PEs, n = " << n;
      EXPECT_EQ(v64, w64);
      using C = std::complex<double>;
      const auto [cc, vc] = accessor_mix<C>(pes, n, true);
      const auto [rc, wc] = accessor_mix<C>(pes, n, false);
      EXPECT_EQ(cc, rc) << pes << " PEs, n = " << n << ", 2-word elements";
      EXPECT_EQ(vc, wc);
      EXPECT_GT(c64[1], 0.0);  // the mix does communicate
    }
  }
}

}  // namespace
}  // namespace obliv::no
