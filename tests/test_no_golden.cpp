// Golden-counter regression test for the NO accounting engine (NoMachine).
//
// Every Table II NO problem (prefix sum, transpose, N-GEP matmul-embed and
// Floyd-Warshall, FFT, columnsort, NO-LR) plus NO-CC runs at a small size on
// a two-fold machine with D-BSP accounting on, and a synthetic op stream
// exercises nested parallel frames directly.  Per fold communication and
// computation, supersteps, total message words and D-BSP time must stay
// bit-identical: the NO column of Table II is derived from them, so an
// accounting "optimisation" that perturbs them is a correctness bug.
//
// The expected values were recorded from the hash-set implementation of
// NoMachine.  Regenerate (only after an intentional semantic change):
//   OBLIV_GOLDEN_REGEN=1 ./obliv_tests --gtest_filter='NoGolden.*'
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/gep.hpp"
#include "algo/graph.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "no/colsort.hpp"
#include "no/fft.hpp"
#include "no/machine.hpp"
#include "no/ngep.hpp"
#include "no/transpose.hpp"
#include "no/wrappers.hpp"
#include "util/rng.hpp"

namespace obliv::no {
namespace {

/// Two folds -- a narrow one and the p = N fold (wider than 256 processors
/// for the transpose and FFT machines) -- plus a mesh-like D-BSP.
std::vector<FoldConfig> golden_folds(std::uint64_t pes) {
  const auto narrow = static_cast<std::uint32_t>(std::min<std::uint64_t>(pes, 8));
  return {{narrow, 4}, {static_cast<std::uint32_t>(pes), 2}};
}
DbspConfig golden_dbsp(std::uint64_t pes) {
  return DbspConfig::mesh_like(
      static_cast<std::uint32_t>(std::min<std::uint64_t>(pes, 16)));
}
NoMachine golden_machine(std::uint64_t pes) {
  return NoMachine(pes, golden_folds(pes), golden_dbsp(pes));
}

struct Snapshot {
  std::vector<std::uint64_t> counts;  // comm0, comp0, comm1, comp1, steps, words
  double dbsp = 0;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const NoMachine& m) {
  Snapshot s;
  for (std::size_t f = 0; f < m.folds().size(); ++f) {
    s.counts.push_back(m.communication(f));
    s.counts.push_back(m.computation(f));
  }
  s.counts.push_back(m.supersteps());
  s.counts.push_back(m.total_message_words());
  s.dbsp = m.dbsp_time();
  return s;
}

std::vector<std::uint64_t> random_list(std::uint64_t n, std::uint64_t seed,
                                       std::vector<std::uint64_t>& pred) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> succ;
  algo::link_list(algo::random_list_order(n, rng), succ, pred);
  return succ;
}

/// One step of the synthetic op stream.
struct Op {
  enum Kind { kSend, kCompute, kEnd, kBegin, kNext, kClose } kind;
  std::uint64_t a = 0, b = 0, c = 0;
};

/// A seeded stream of sends, computes and superstep fences inside nested
/// parallel frames (depth <= 3), following the documented frame protocol
/// (every branch, the last included, ends with parallel_next).
std::vector<Op> synthetic_ops(std::uint64_t pes, std::uint64_t seed,
                              std::size_t len) {
  util::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  int depth = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t r = rng.below(100);
    if (r < 55) {
      ops.push_back({Op::kSend, rng.below(pes), rng.below(pes), 1 + rng.below(9)});
    } else if (r < 80) {
      ops.push_back({Op::kCompute, rng.below(pes), 1 + rng.below(20)});
    } else if (r < 87) {
      ops.push_back({Op::kEnd});
    } else if (r < 92 && depth < 3) {
      ops.push_back({Op::kBegin});
      ++depth;
    } else if (r < 97 && depth > 0) {
      ops.push_back({Op::kNext});
    } else if (depth > 0) {
      ops.push_back({Op::kNext});
      ops.push_back({Op::kClose});
      --depth;
    }
  }
  for (; depth > 0; --depth) {
    ops.push_back({Op::kNext});
    ops.push_back({Op::kClose});
  }
  ops.push_back({Op::kEnd});
  return ops;
}

void apply(NoMachine& m, const std::vector<Op>& ops, std::size_t from,
           std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kSend: m.send(op.a, op.b, op.c); break;
      case Op::kCompute: m.compute(op.a, op.b); break;
      case Op::kEnd: m.end_superstep(); break;
      case Op::kBegin: m.parallel_begin(); break;
      case Op::kNext: m.parallel_next(); break;
      case Op::kClose: m.parallel_end(); break;
    }
  }
}

struct GoldenRun {
  std::string name;
  Snapshot snap;
};

std::vector<GoldenRun> run_all() {
  std::vector<GoldenRun> out;
  auto record = [&](std::string name, const NoMachine& m) {
    out.push_back({std::move(name), snapshot(m)});
  };
  {
    NoMachine m = golden_machine(32);
    no_prefix_sum(m, std::vector<std::uint64_t>(2048, 1));
    record("prefix_sum/32/2048", m);
  }
  {
    const std::uint64_t n = 32;
    NoMachine m = golden_machine(n * n);
    std::vector<double> a(n * n), o;
    std::iota(a.begin(), a.end(), 0.0);
    no_transpose(m, a, o, n);
    record("transpose/1024/32", m);
  }
  {
    const std::uint64_t n = 16;
    NoMachine m = golden_machine(256);
    std::vector<double> x(4 * n * n, 1.0);
    algo::MatMulEmbedInstance::half = n;
    n_gep<algo::MatMulEmbedInstance>(m, x, 2 * n, /*use_dstar=*/true);
    record("ngep-matmul/256/16", m);
  }
  for (const bool dstar : {true, false}) {
    const std::uint64_t n = 32;
    NoMachine m = golden_machine(256);
    std::vector<double> x(n * n, 1.0);
    n_gep<algo::FloydWarshallInstance>(m, x, n, dstar);
    record(dstar ? "ngep-fw-dstar/256/32" : "ngep-fw-d/256/32", m);
  }
  {
    const std::uint64_t n = 1024;
    NoMachine m = golden_machine(n);
    std::vector<cplx> x(n, cplx(1.0, 0.0));
    no_fft(m, x);
    record("fft/1024/1024", m);
  }
  {
    const std::uint64_t n = 1024;
    const ColsortShape sh = colsort_shape(n);
    NoMachine m = golden_machine(sh.s + 1);
    util::Xoshiro256 rng(7);
    std::vector<std::int64_t> keys(n);
    for (auto& v : keys) v = static_cast<std::int64_t>(rng.below(1u << 30));
    no_columnsort(m, keys, std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
    record("columnsort/" + std::to_string(sh.s + 1) + "/1024", m);
  }
  {
    std::vector<std::uint64_t> pred;
    const std::vector<std::uint64_t> succ = random_list(1024, 11, pred);
    NoMachine m = golden_machine(32);
    no_list_rank(m, succ, pred);
    record("listrank/32/1024", m);
  }
  {
    algo::EdgeList g;
    g.n = 256;
    util::Xoshiro256 rng(13);
    for (int e = 0; e < 320; ++e) {
      g.edges.emplace_back(static_cast<std::uint32_t>(rng.below(g.n)),
                           static_cast<std::uint32_t>(rng.below(g.n)));
    }
    NoMachine m = golden_machine(32);
    no_connected_components(m, g);
    record("cc/32/256", m);
  }
  {
    NoMachine m = golden_machine(64);
    const std::vector<Op> ops = synthetic_ops(64, 21, 4000);
    apply(m, ops, 0, ops.size());
    record("synthetic/64/4000", m);
  }
  return out;
}

struct Expected {
  const char* name;
  std::vector<std::uint64_t> counts;
  double dbsp;
};

// clang-format off
const std::vector<Expected> kExpected = {
    // <GOLDEN>
    {"prefix_sum/32/2048",
     {916ull, 2125ull, 692ull, 539ull, 21ull, 10881ull},
     2344},
    {"transpose/1024/32",
     {28ull, 128ull, 1ull, 1ull, 1ull, 992ull},
     60},
    {"ngep-matmul/256/16",
     {544ull, 512ull, 242ull, 256ull, 26ull, 14118ull},
     1306.5096679918781},
    {"ngep-fw-dstar/256/32",
     {2544ull, 6144ull, 3544ull, 5120ull, 352ull, 76254ull},
     10857.877051683252},
    {"ngep-fw-d/256/32",
     {2720ull, 6144ull, 3544ull, 5120ull, 352ull, 76254ull},
     11209.877051683254},
    {"fft/1024/1024",
     {168ull, 15360ull, 49ull, 664ull, 20ull, 30784ull},
     360},
    {"columnsort/9/1024",
     {88ull, 5120ull, 176ull, 4096ull, 8ull, 2816ull},
     384},
    {"listrank/32/1024",
     {56289ull, 516591ull, 52586ull, 257176ull, 3772ull, 1073927ull},
     168965.00141024104},
    {"cc/32/256",
     {18155ull, 163506ull, 18003ull, 83922ull, 1415ull, 326986ull},
     56220.9202666704},
    {"synthetic/64/4000",
     {1655ull, 5870ull, 2008ull, 4769ull, 262ull, 10741ull},
     5899.9352083112917},
    // </GOLDEN>
};
// clang-format on

TEST(NoGolden, CountersBitIdenticalToBaseline) {
  const std::vector<GoldenRun> runs = run_all();
  if (std::getenv("OBLIV_GOLDEN_REGEN") != nullptr) {
    for (const GoldenRun& g : runs) {
      std::printf("    {\"%s\",\n     {", g.name.c_str());
      for (std::size_t i = 0; i < g.snap.counts.size(); ++i) {
        std::printf("%lluull%s", static_cast<unsigned long long>(g.snap.counts[i]),
                    i + 1 < g.snap.counts.size() ? ", " : "");
      }
      std::printf("},\n     %.17g},\n", g.snap.dbsp);
    }
    GTEST_SKIP() << "regeneration mode: printed literals, asserting nothing";
  }
  const std::size_t n_expected = kExpected.size();
  ASSERT_EQ(runs.size(), n_expected) << "problem sweep changed shape";
  for (std::size_t i = 0; i < n_expected; ++i) {
    EXPECT_EQ(runs[i].name, kExpected[i].name);
    EXPECT_EQ(runs[i].snap.counts, kExpected[i].counts)
        << "NO counters changed for " << runs[i].name;
    EXPECT_EQ(runs[i].snap.dbsp, kExpected[i].dbsp)
        << "D-BSP time changed for " << runs[i].name;
  }
}

// A machine from make(), moved while a superstep and parallel frames are
// open, must account exactly like one built in place: the engine may keep
// indices into its own tables, never pointers.
TEST(NoGolden, MovedMidSuperstepMatchesDirect) {
  const std::vector<Op> ops = synthetic_ops(64, 33, 3000);
  NoMachine direct = golden_machine(64);
  apply(direct, ops, 0, ops.size());

  // Frame depth before op i.
  std::vector<int> depth(ops.size() + 1, 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    depth[i + 1] = depth[i] + (ops[i].kind == Op::kBegin) -
                   (ops[i].kind == Op::kClose);
  }
  for (const std::size_t split : {ops.size() / 3, ops.size() / 2}) {
    // Advance to just after a send inside an open frame: the superstep has
    // pending traffic and the frame stack is non-empty.
    std::size_t cut = split;
    while (cut < ops.size() &&
           (ops[cut].kind != Op::kSend || depth[cut] == 0)) {
      ++cut;
    }
    ++cut;
    ASSERT_LT(cut, ops.size());
    Result<NoMachine> made = NoMachine::make(64, golden_folds(64), golden_dbsp(64));
    ASSERT_TRUE(made.ok());
    apply(made.value(), ops, 0, cut);
    NoMachine moved(std::move(made).value());
    apply(moved, ops, cut, ops.size());
    EXPECT_EQ(snapshot(moved), snapshot(direct)) << "split at op " << cut;

    // Move assignment over a machine with its own history.
    NoMachine other = golden_machine(64);
    apply(other, ops, 0, cut / 2);
    NoMachine src = golden_machine(64);
    apply(src, ops, 0, cut);
    other = std::move(src);
    apply(other, ops, cut, ops.size());
    EXPECT_EQ(snapshot(other), snapshot(direct)) << "assigned at op " << cut;
  }
}

}  // namespace
}  // namespace obliv::no
