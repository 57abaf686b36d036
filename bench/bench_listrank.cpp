// Experiment: Theorem 7 -- MO-LR list ranking.
//
// Reproduced claims:
//   (1) work Theta(n log n) (sorts dominate each contraction level);
//   (2) cache complexity dominated by (n/(q_i B_i)) log_{C_i} n;
//   (3) span polylogarithmic in effect: T_p scales with p while the
//       sequential pointer chase has span = work and one random access per
//       hop (its L1 misses ~ n, i.e. B_1 times more per element than a
//       scan).
#include <cmath>
#include <iostream>

#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "bench/common.hpp"
#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

struct List {
  std::vector<std::uint64_t> succ, pred;
};

List random_list(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  List li;
  algo::link_list(algo::random_list_order(n, rng), li.succ, li.pred);
  return li;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  bench::print_header("Theorem 7: MO-LR list ranking");
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  bench::print_machine(cfg);

  bench::Series work{"MO-LR work vs n log2 n"};
  bench::Series miss{"MO-LR L1 misses vs (n/(q_1 B_1)) log_{C_1} n"};
  bench::Series chase{"sequential chase L1 misses vs n (one per hop)"};
  util::Table t({"n", "work", "span", "T_p (p=4)", "T_1", "speedup"});

  for (std::uint64_t n :
       bench::sweep(smoke, {1u << 11, 1u << 12, 1u << 13, 1u << 14})) {
    const List li = random_list(n, n);
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto sb = ex.make_buf<std::uint64_t>(n);
    auto pb = ex.make_buf<std::uint64_t>(n);
    auto db = ex.make_buf<std::uint64_t>(n);
    sb.raw() = li.succ;
    pb.raw() = li.pred;
    const auto m = ex.run(8 * n, [&] {
      algo::mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
    });
    work.add(double(n), double(m.work), double(n) * std::log2(double(n)));
    const double logc = std::max(
        1.0, std::log(double(n)) / std::log(double(cfg.capacity(1))));
    miss.add(double(n), double(m.level_max_misses[0]),
             double(n) / (cfg.caches_at(1) * cfg.block(1)) * logc);
    t.add_row({util::Table::fmt(std::uint64_t(n)), util::Table::fmt(m.work),
               util::Table::fmt(m.span),
               util::Table::fmt(m.parallel_steps(cfg.cores()), "%.4g"),
               util::Table::fmt(m.parallel_steps(1), "%.4g"),
               util::Table::fmt(m.parallel_steps(1) /
                                    m.parallel_steps(cfg.cores()),
                                "%.2f")});

    const auto ms = ex.run(8 * n, [&] {
      algo::list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
    });
    chase.add(double(n), double(ms.level_max_misses[0]), double(n));
  }
  bench::print_series(work);
  bench::print_series(miss);
  bench::print_series(chase);
  std::cout << "\n-- MO-LR parallel time scaling --\n";
  t.print(std::cout);
  return 0;
}
