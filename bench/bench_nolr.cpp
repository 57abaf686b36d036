// Experiment: Theorem 9 -- NO-LR list ranking on M(p, B).
//
// Reproduced claims:
//   (1) computation complexity Theta((n/p) log n): halves when p doubles;
//   (2) communication dominated by the O(1) sorts/scans per contraction
//       level: grows ~linearly in n at fixed (p, B) and decreases with B;
//   (3) nodes are evenly distributed among PEs (the block-distributed
//       buffers of NoExecutor), the distinguishing choice of Section VI-B.
#include <cmath>
#include <iostream>

#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "bench/common.hpp"
#include "no/wrappers.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

void make_list(std::uint64_t n, std::uint64_t seed,
               std::vector<std::uint64_t>& succ,
               std::vector<std::uint64_t>& pred) {
  util::Xoshiro256 rng(seed);
  algo::link_list(algo::random_list_order(n, rng), succ, pred);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  bench::print_header("Theorem 9: NO-LR on M(p, B)");

  // (1)+(2): n-sweep on fixed folds.
  {
    bench::Series comm{"NO-LR communication vs n/(pB) * log n, p=8, B=4"};
    bench::Series comp{"NO-LR computation vs (n/p) log2 n, p=8"};
    for (std::uint64_t n :
         bench::sweep(smoke, {1u << 10, 1u << 11, 1u << 12, 1u << 13})) {
      std::vector<std::uint64_t> succ, pred;
      make_list(n, n, succ, pred);
      no::NoMachine mach(32, {{8, 4}});
      bench::trace_attach(mach);
      no::no_list_rank(mach, succ, pred);
      comm.add(double(n), double(mach.communication(0)),
               double(n) / (8.0 * 4.0) * std::log2(double(n)));
      comp.add(double(n), double(mach.computation(0)),
               double(n) / 8.0 * std::log2(double(n)));
    }
    bench::print_series(comm);
    bench::print_series(comp);
  }

  // p-sweep at fixed n: computation must scale down with p.
  {
    util::Table t({"p", "communication (B=4)", "computation"});
    const std::uint64_t n = smoke ? 1 << 10 : 1 << 12;
    std::vector<std::uint64_t> succ, pred;
    make_list(n, 5, succ, pred);
    for (std::uint32_t p : {1u, 2u, 4u, 8u, 16u, 32u}) {
      no::NoMachine mach(32, {{p, 4}});
      bench::trace_attach(mach);
      no::no_list_rank(mach, succ, pred);
      t.add_row({util::Table::fmt(std::uint64_t(p)),
                 util::Table::fmt(mach.communication(0)),
                 util::Table::fmt(mach.computation(0))});
    }
    std::cout << "\n-- NO-LR p-sweep (n=4096) --\n";
    t.print(std::cout);
  }

  // B-sweep: blocks amortize words.
  {
    util::Table t({"B", "communication (p=8)"});
    const std::uint64_t n = smoke ? 1 << 10 : 1 << 12;
    std::vector<std::uint64_t> succ, pred;
    make_list(n, 6, succ, pred);
    for (std::uint64_t B : {1u, 2u, 4u, 8u, 16u}) {
      no::NoMachine mach(32, {{8, B}});
      bench::trace_attach(mach);
      no::no_list_rank(mach, succ, pred);
      t.add_row({util::Table::fmt(std::uint64_t(B)),
                 util::Table::fmt(mach.communication(0))});
    }
    std::cout << "\n-- NO-LR B-sweep (n=4096) --\n";
    t.print(std::cout);
  }
  return 0;
}
