// Experiment: Table II -- the paper's summary table, regenerated.
//
// One row per problem, in the paper's order.  For each we report the
// measured MO quantities on the HM simulator (time = T_p by Brent from
// work/span; cache = max per-cache misses at level 1) and the measured NO
// communication on M(p, B), next to the paper's bound evaluated at the same
// parameters, with the measured/bound ratio.  A flat, O(1) ratio column is
// the reproduction criterion (constants are not claimed by the paper).
#include <cmath>
#include <iostream>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graph.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "bench/common.hpp"
#include "hm/config.hpp"
#include "no/colsort.hpp"
#include "no/fft.hpp"
#include "no/ngep.hpp"
#include "no/transpose.hpp"
#include "no/wrappers.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

struct Row {
  std::string problem;
  double time_meas, time_bound;
  double cache_meas, cache_bound;
  double comm_meas, comm_bound;
};

std::vector<Row> rows;

void add(const std::string& name, double tm, double tb, double cm, double cb,
         double om, double ob) {
  rows.push_back(Row{name, tm, tb, cm, cb, om, ob});
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  bench::print_header("Table II: summary of results (regenerated)");
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  bench::print_machine(cfg);
  const double p = cfg.cores();
  const double q1 = cfg.caches_at(1), B1 = cfg.block(1);
  const double C1 = cfg.capacity(1);
  const std::uint32_t no_p = 8;
  const std::uint64_t no_b = 4;
  std::cout << "NO fold: M(p=" << no_p << ", B=" << no_b << ")\n";
  util::Xoshiro256 rng(2026);

  // ---- Prefix sum, n = 2^16. ----
  {
    const std::uint64_t n = smoke ? 1 << 12 : 1 << 16;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto buf = ex.make_buf<std::int64_t>(n);
    for (auto& v : buf.raw()) v = 1;
    const auto m = ex.run(2 * n, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
    no::NoMachine mach(32, {{no_p, no_b}});
    bench::trace_attach(mach);
    std::vector<std::uint64_t> xs(n, 1);
    no::no_prefix_sum(mach, xs);
    add("Prefix sum", m.parallel_steps(cfg.cores()), double(n) / p,
        double(m.level_max_misses[0]), double(n) / (q1 * B1),
        double(mach.communication(0)),
        double(n) / (no_p * no_b));  // dominated by the data-local scans
  }

  // ---- Matrix transposition, n = 256. ----
  {
    const std::uint64_t n = smoke ? 64 : 256;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto a = ex.make_buf<double>(n * n);
    auto out = ex.make_buf<double>(n * n);
    for (auto& v : a.raw()) v = 1.0;
    const auto m = ex.run(3 * n * n, [&] {
      algo::mo_transpose(ex, a.ref(), out.ref(), n);
    });
    no::NoMachine mach(n * n, {{no_p, no_b}});
    bench::trace_attach(mach);
    std::vector<double> host(n * n, 1.0), host_out;
    no::no_transpose(mach, host, host_out, n);
    add("Matrix transposition", m.parallel_steps(cfg.cores()),
        double(n * n) / p, double(m.level_max_misses[0]),
        double(n * n) / (q1 * B1), double(mach.communication(0)),
        double(n * n) / (no_b * no_p));
  }

  // ---- Matrix multiplication, n = 128. ----
  {
    const std::uint64_t n = smoke ? 32 : 128;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto c = ex.make_buf<double>(n * n);
    auto a = ex.make_buf<double>(n * n);
    auto b = ex.make_buf<double>(n * n);
    for (auto& v : a.raw()) v = 1.0;
    for (auto& v : b.raw()) v = 1.0;
    using Mat = sched::MatView<sched::SimRef<double>>;
    const auto m = ex.run(4 * n * n, [&] {
      algo::mo_matmul(ex, Mat::full(c.ref(), n, n), Mat::full(a.ref(), n, n),
                      Mat::full(b.ref(), n, n));
    });
    // NO side: matmul embedded in N-GEP's D (Theorem 6's bound applies).
    std::vector<double> x(4 * n * n, 1.0);
    algo::MatMulEmbedInstance::half = n;
    no::NoMachine mach(256, {{no_p, no_b}});
    bench::trace_attach(mach);
    no::n_gep<algo::MatMulEmbedInstance>(mach, x, 2 * n, true);
    add("Matrix multiplication", m.parallel_steps(cfg.cores()),
        double(n) * n * n / p, double(m.level_max_misses[0]),
        double(n) * n * n / (q1 * B1 * std::sqrt(C1)),
        double(mach.communication(0)),
        double(2 * n) * (2 * n) / (no_b * std::sqrt(double(no_p))));
  }

  // ---- GEP (Floyd-Warshall), n = 128. ----
  {
    const std::uint64_t n = smoke ? 32 : 128;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto buf = ex.make_buf<double>(n * n);
    for (auto& v : buf.raw()) v = rng.uniform();
    using Mat = sched::MatView<sched::SimRef<double>>;
    const auto m = ex.run(n * n, [&] {
      algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n));
    });
    std::vector<double> x(n * n, 1.0);
    no::NoMachine mach(256, {{no_p, no_b}});
    bench::trace_attach(mach);
    no::n_gep<algo::FloydWarshallInstance>(mach, x, n, true);
    add("GEP", m.parallel_steps(cfg.cores()), double(n) * n * n / p,
        double(m.level_max_misses[0]),
        double(n) * n * n / (q1 * B1 * std::sqrt(C1)),
        double(mach.communication(0)),
        double(n) * n / (no_b * std::sqrt(double(no_p))));
  }

  // ---- FFT, n = 2^16. ----
  {
    const std::uint64_t n = smoke ? 1 << 12 : 1 << 16;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto buf = ex.make_buf<algo::cplx>(n);
    for (auto& v : buf.raw()) v = algo::cplx(1.0, 0.0);
    const auto m = ex.run(6 * n, [&] { algo::mo_fft(ex, buf.ref()); });
    const std::uint64_t no_n = smoke ? 1 << 10 : 1 << 12;
    no::NoMachine mach(no_n, {{no_p, no_b}});
    bench::trace_attach(mach);
    std::vector<algo::cplx> x(no_n, algo::cplx(1.0, 0.0));
    no::no_fft(mach, x);
    const double logc = std::log(double(n)) / std::log(C1);
    const double lognp =
        std::log(double(no_n)) / std::log(double(no_n) / no_p);
    add("FFT", m.parallel_steps(cfg.cores()),
        double(n) * std::log2(double(n)) / p,
        double(m.level_max_misses[0]), double(n) / (q1 * B1) * logc,
        double(mach.communication(0)),
        double(no_n) / (no_p * no_b) * lognp);
  }

  // ---- Sorting, n = 2^16 (MO: SPMS; NO: columnsort). ----
  {
    const std::uint64_t n = smoke ? 1 << 12 : 1 << 16;
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto buf = ex.make_buf<std::uint64_t>(n);
    for (auto& v : buf.raw()) v = rng();
    const auto m = ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
    const std::uint64_t no_n = smoke ? 1 << 10 : 1 << 14;
    const no::ColsortShape sh = no::colsort_shape(no_n);
    no::NoMachine mach(sh.s + 1, {{no_p, no_b}});
    bench::trace_attach(mach);
    std::vector<std::int64_t> keys(no_n);
    for (auto& v : keys) v = static_cast<std::int64_t>(rng.below(1u << 30));
    no::no_columnsort(mach, keys, std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max());
    const double logc = std::log(double(n)) / std::log(C1);
    add("Sorting", m.parallel_steps(cfg.cores()),
        double(n) * std::log2(double(n)) / p,
        double(m.level_max_misses[0]), double(n) / (q1 * B1) * logc,
        double(mach.communication(0)), double(no_n) / (no_p * no_b));
  }

  // ---- List ranking, n = 2^13. ----
  {
    const std::uint64_t n = smoke ? 1 << 10 : 1 << 13;
    std::vector<std::uint64_t> succ, pred;
    algo::link_list(algo::random_list_order(n, rng), succ, pred);
    sched::SimExecutor ex(cfg);
    bench::trace_attach(ex);
    auto sb = ex.make_buf<std::uint64_t>(n);
    auto pb = ex.make_buf<std::uint64_t>(n);
    auto db = ex.make_buf<std::uint64_t>(n);
    sb.raw() = succ;
    pb.raw() = pred;
    const auto m = ex.run(8 * n, [&] {
      algo::mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
    });
    no::NoMachine mach(32, {{no_p, no_b}});
    bench::trace_attach(mach);
    no::no_list_rank(mach, succ, pred);
    const double logc = std::log(double(n)) / std::log(C1);
    add("List ranking", m.parallel_steps(cfg.cores()),
        double(n) * std::log2(double(n)) / p,
        double(m.level_max_misses[0]),
        double(n) / (q1 * B1) * std::max(1.0, logc),
        double(mach.communication(0)),
        double(n) / (no_p * no_b) * std::log2(double(n)));
  }

  util::Table t({"Problem", "T_p meas", "T_p bound", "ratio", "L1 miss meas",
                 "L1 miss bound", "ratio", "NO comm meas", "NO comm bound",
                 "ratio"});
  for (const Row& r : rows) {
    t.add_row({r.problem, util::Table::fmt(r.time_meas, "%.4g"),
               util::Table::fmt(r.time_bound, "%.4g"),
               util::Table::fmt(r.time_meas / r.time_bound, "%.2f"),
               util::Table::fmt(r.cache_meas, "%.4g"),
               util::Table::fmt(r.cache_bound, "%.4g"),
               util::Table::fmt(r.cache_meas / r.cache_bound, "%.2f"),
               util::Table::fmt(r.comm_meas, "%.4g"),
               util::Table::fmt(r.comm_bound, "%.4g"),
               util::Table::fmt(r.comm_meas / r.comm_bound, "%.2f")});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nRatios are measured/bound at the stated sizes; the paper "
               "claims the bounds up to constants,\nso O(1)-to-O(10) flat "
               "ratios reproduce Table II. Per-problem n-sweeps are in the "
               "dedicated benches.\n";
  return 0;
}
