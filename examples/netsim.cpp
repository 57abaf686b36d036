// Example: network-oblivious algorithms on M(p, B) and D-BSP.
//
// The same N-GEP program (Section V-B) is "run" once and costed on four
// different foldings of the PE network simultaneously, plus a D-BSP
// machine -- the point of network-obliviousness: one specification, optimal
// behaviour across machines.  Also demonstrates columnsort and NO-LR.
//
// Build & run:  ./build/examples/example_netsim
#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "no/colsort.hpp"
#include "no/ngep.hpp"
#include "no/wrappers.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace obliv;

int main() {
  util::Xoshiro256 rng(5);

  // --- N-GEP (Floyd-Warshall) costed on four foldings at once. ---
  {
    const std::uint64_t n = 64;
    std::vector<double> x(n * n);
    for (auto& v : x) v = rng.uniform() * 10 + 0.1;
    for (std::uint64_t v = 0; v < n; ++v) x[v * n + v] = 0;

    std::vector<no::FoldConfig> folds = {{4, 4}, {16, 4}, {64, 4}, {16, 16}};
    no::NoMachine mach(64, folds, no::DbspConfig::mesh_like(16));
    no::n_gep<algo::FloydWarshallInstance>(mach, x, n, /*use_dstar=*/true);

    std::cout << "N-GEP (Floyd-Warshall, n=" << n
              << ") on M(64), one run, four foldings:\n";
    util::Table t({"M(p,B)", "communication", "computation"});
    for (std::size_t f = 0; f < folds.size(); ++f) {
      t.add_row({"M(" + std::to_string(folds[f].p) + "," +
                     std::to_string(folds[f].block) + ")",
                 util::Table::fmt(mach.communication(f)),
                 util::Table::fmt(mach.computation(f))});
    }
    t.print(std::cout);
    std::cout << "D-BSP(16, mesh-like) communication time: "
              << mach.dbsp_time() << "\n";
    std::cout << "supersteps: " << mach.supersteps() << "\n\n";
  }

  // --- Columnsort: the NO sorting algorithm. ---
  {
    const std::uint64_t n = 20000;
    std::vector<std::int64_t> keys(n);
    for (auto& v : keys) v = static_cast<std::int64_t>(rng.below(1u << 30));
    const no::ColsortShape sh = no::colsort_shape(n);
    no::NoMachine mach(sh.s + 1, {{4, 8}});
    no::no_columnsort(mach, keys, std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max());
    std::cout << "columnsort of " << n << " keys: r=" << sh.r << " s=" << sh.s
              << ", sorted=" << std::is_sorted(keys.begin(), keys.end())
              << ", comm on M(4,8) = " << mach.communication(0)
              << " blocks\n\n";
  }

  // --- NO-LR: list ranking with evenly distributed nodes. ---
  {
    const std::uint64_t n = 4096;
    const std::vector<std::uint64_t> perm = algo::random_list_order(n, rng);
    std::vector<std::uint64_t> succ, pred;
    algo::link_list(perm, succ, pred);
    no::NoMachine mach(16, {{16, 4}});
    const auto rank = no::no_list_rank(mach, succ, pred);
    std::cout << "NO-LR on " << n << " nodes: head rank = " << rank[perm[0]]
              << " (expect " << n - 1 << "), comm on M(16,4) = "
              << mach.communication(0) << " blocks\n";
  }
  return 0;
}
