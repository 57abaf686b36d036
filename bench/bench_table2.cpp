// Experiment: Table II and Theorems 1-10, regenerated from one row table.
//
// First Table II itself: one line per problem at a fixed size, with the
// measured MO quantities on the HM simulator (time = T_p by Brent from
// work/span; cache = max per-cache misses at level 1) and the measured NO
// communication on M(p, B), each next to the paper's bound at the same
// parameters and the measured/bound ratio.  Then, theorem by theorem, the
// n-sweeps: every counter a theorem bounds against its bound, with the
// fitted log-log slopes and the ratio spread, the baselines the theorem is
// contrasted with, and the ablations.  A flat, O(1) ratio column is the
// reproduction criterion (the paper claims no constants).  Every Table II
// bound comes from workload/bounds.hpp; the baselines' models are written
// next to their rows.
//
// --smoke keeps the first two points of every sweep and shrinks the fixed
// sizes, so ctest runs every row and section; --trace-out=<path> exports
// one Chrome trace of the whole run.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graph.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
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
#include "util/stats.hpp"
#include "workload/bounds.hpp"
#include "workload/workloads.hpp"

using namespace obliv;
namespace bd = workload::bound;
using workload::Kind;

namespace {

using Mat = sched::MatView<sched::SimRef<double>>;
using Machine = hm::MachineConfig;

// ---------------------------------------------------------------------------
// The row table's vocabulary.
// ---------------------------------------------------------------------------

/// What one run at one sweep point measured.
struct Sample {
  double x = 0;           ///< the printed axis value (n, N or p)
  double n = 0, m = 0;    ///< problem size; edge count for graphs
  double p = 0, B = 0;    ///< the NO fold M(p, B) of an NO run
  sched::RunMetrics hm;   ///< an MO run's simulator counters
  double comm = 0, comp = 0;  ///< an NO run's fold-0 counters
};

/// The counter a series reads.  kMisses prints one series per cache level.
enum class Counter { kMisses, kL1Misses, kSpan, kSteps, kWork, kComm, kComp };

double read(Counter c, const Sample& s, std::uint32_t lvl, std::uint32_t p) {
  switch (c) {
    case Counter::kMisses:
    case Counter::kL1Misses: return double(s.hm.level_max_misses[lvl - 1]);
    case Counter::kSpan: return double(s.hm.span);
    case Counter::kSteps: return s.hm.parallel_steps(p);
    case Counter::kWork: return double(s.hm.work);
    case Counter::kComm: return s.comm;
    case Counter::kComp: return s.comp;
  }
  return 0;
}

using BoundFn = double (*)(const Machine& cfg, std::uint32_t lvl,
                           const Sample& s);

/// A bounds.hpp form evaluated at a sample: the MO forms take (cfg, level,
/// n), (cfg, n) or (n); the NO forms (n, p, B), (n, p) or (n, m, p, B).
template <auto F>
double at(const Machine& cfg, std::uint32_t lvl, const Sample& s) {
  using Fn = decltype(F);
  if constexpr (std::is_invocable_v<Fn, const Machine&, std::uint32_t,
                                    double>) {
    return F(cfg, lvl, s.n);
  } else if constexpr (std::is_invocable_v<Fn, const Machine&, double>) {
    return F(cfg, s.n);
  } else if constexpr (std::is_invocable_v<Fn, double, double, double,
                                           double>) {
    return F(s.n, s.m, s.p, s.B);
  } else if constexpr (std::is_invocable_v<Fn, double, double, double>) {
    return F(s.n, s.p, s.B);
  } else if constexpr (std::is_invocable_v<Fn, double, double>) {
    return F(s.n, s.p);
  } else {
    return F(s.n);
  }
}

struct SeriesSpec {
  std::string title;  ///< "{L}" becomes the cache level
  std::size_t run;    ///< which of the point's runs it reads
  Counter counter;
  BoundFn bound;
};

/// What a row's run sees: its machine, the mode, and the one random stream
/// Table II's summary lines draw their inputs from, in line order.
struct Ctx {
  const Machine& cfg;
  bool smoke;
  util::Xoshiro256& rng;
};

/// The runs at one sweep point: the algorithm, plus whatever else the
/// row's series compare on the same input.
using RunFn = std::vector<Sample> (*)(Ctx& ctx, std::uint64_t point);

/// One theorem's sweep on one or more machines.
struct Row {
  std::string header;  ///< section header, printed when non-empty
  std::vector<Machine> machines;  ///< MO machines; one empty config for NO
  /// The sweep; --smoke keeps its first two points.  A Table II line has
  /// two points, its size in full mode and under --smoke.
  std::vector<std::uint64_t> points;
  RunFn run;
  std::vector<SeriesSpec> series;
  const char* axis = "n";
  /// A Table II summary line: its problem name, and `series` is exactly
  /// {T_p, L1 misses, NO communication}.
  const char* problem = nullptr;
  /// Prints a table from the runs after the series (may be null).
  void (*table)(const Machine& cfg,
                const std::vector<std::vector<Sample>>& runs) = nullptr;
};

/// A table that is not a bound sweep: a fixed-size ablation or parameter
/// sweep, printed by its own code.
using Section = void (*)(bool smoke);

using Entry = std::variant<Row, Section>;

// ---------------------------------------------------------------------------
// Inputs and runs.
// ---------------------------------------------------------------------------

/// One simulator run on a fresh executor: `fn(ex)` allocates its buffers
/// and returns ex.run's metrics.
template <class Fn>
Sample sim(const Machine& cfg, double n, Fn&& fn) {
  sched::SimExecutor ex(cfg);
  bench::trace_attach(ex);
  Sample s;
  s.x = s.n = n;
  s.hm = fn(ex);
  return s;
}

/// A registry kind's call: workload::Instance at size n, run under its
/// S(n).  kSeedIsN draws the input from seed n instead of 1.
template <Kind K, bool kSeedIsN = false>
std::vector<Sample> reg(Ctx& ctx, std::uint64_t n) {
  return {sim(ctx.cfg, double(n), [&](sched::SimExecutor& ex) {
    workload::Instance<sched::SimExecutor> inst(ex, K, n, kSeedIsN ? n : 1);
    return inst.run(ex);
  })};
}

/// One NO run on `pes` PEs, measured on `fold`.
template <class Fn>
Sample no_run(double n, std::uint64_t pes, no::FoldConfig fold, Fn&& fn) {
  no::NoMachine mach(pes, {fold});
  bench::trace_attach(mach);
  fn(mach);
  Sample s;
  s.x = s.n = n;
  s.p = fold.p;
  s.B = double(fold.block);
  s.comm = double(mach.communication(0));
  s.comp = double(mach.computation(0));
  return s;
}

void make_list(std::uint64_t n, util::Xoshiro256& rng,
               std::vector<std::uint64_t>& succ,
               std::vector<std::uint64_t>& pred) {
  algo::link_list(algo::random_list_order(n, rng), succ, pred);
}

algo::EdgeList random_graph(std::uint64_t n, std::uint64_t m,
                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  algo::EdgeList g;
  g.n = n;
  for (std::uint64_t e = 0; e < m; ++e) {
    g.edges.emplace_back(static_cast<std::uint32_t>(rng.below(n)),
                         static_cast<std::uint32_t>(rng.below(n)));
  }
  return g;
}

algo::EdgeList grid_graph(std::uint64_t side) {
  algo::EdgeList g;
  g.n = side * side;
  for (std::uint64_t r = 0; r < side; ++r) {
    for (std::uint64_t c = 0; c < side; ++c) {
      const std::uint32_t u = static_cast<std::uint32_t>(r * side + c);
      if (c + 1 < side) g.edges.emplace_back(u, u + 1);
      if (r + 1 < side) {
        g.edges.emplace_back(u, static_cast<std::uint32_t>(u + side));
      }
    }
  }
  return g;
}

std::vector<double> rand_matrix(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> x(n * n);
  for (auto& v : x) v = rng.uniform() + 0.1;
  return x;
}

/// MO-SpM-DV on `a` times a vector of ones, with 4 words per row as the
/// space bound.
Sample spmdv(const Machine& cfg, double n, const algo::SparseMatrix& a) {
  return sim(cfg, n, [&](sched::SimExecutor& ex) {
    auto av = ex.make_buf<algo::SpmEntry>(a.nnz());
    auto a0 = ex.make_buf<std::uint64_t>(a.n + 1);
    auto xv = ex.make_buf<double>(a.n);
    auto yv = ex.make_buf<double>(a.n);
    av.raw() = a.av;
    a0.raw() = a.a0;
    for (auto& v : xv.raw()) v = 1.0;
    return ex.run(4 * a.n, [&] {
      algo::mo_spmdv(ex, av.ref(), a0.ref(), xv.ref(), yv.ref());
    });
  });
}

/// MO-LR or the sequential chase on `succ`/`pred`, under S = 8n.
template <bool kChase>
Sample listrank(const Machine& cfg, const std::vector<std::uint64_t>& succ,
                const std::vector<std::uint64_t>& pred) {
  const std::uint64_t n = succ.size();
  return sim(cfg, double(n), [&](sched::SimExecutor& ex) {
    auto sb = ex.make_buf<std::uint64_t>(n);
    auto pb = ex.make_buf<std::uint64_t>(n);
    auto db = ex.make_buf<std::uint64_t>(n);
    sb.raw() = succ;
    pb.raw() = pred;
    return ex.run(8 * n, [&] {
      if (kChase) {
        algo::list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
      } else {
        algo::mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
      }
    });
  });
}

/// I-GEP on an n x n matrix of uniform + 0.1 entries drawn from
/// Xoshiro256(n), plus n on the diagonal (Gaussian elimination).
std::vector<Sample> gaussian(Ctx& ctx, std::uint64_t n) {
  return {sim(ctx.cfg, double(n), [&](sched::SimExecutor& ex) {
    auto buf = ex.make_buf<double>(n * n);
    util::Xoshiro256 rng(n);
    for (std::uint64_t i = 0; i < n * n; ++i) {
      buf.raw()[i] = rng.uniform() + 0.1;
      if (i / n == i % n) buf.raw()[i] += double(n);
    }
    return ex.run(n * n, [&] {
      algo::igep<algo::GaussianInstance>(ex, Mat::full(buf.ref(), n, n));
    });
  })};
}

// ---- Table II summary lines ------------------------------------------------

constexpr no::FoldConfig kFold{8, 4};

struct SummaryLine {
  const char* problem;
  double cells[6];  // T_p meas, bound; L1 meas, bound; comm meas, bound
};
std::vector<SummaryLine> summary;

void summary_header(bool) {
  bench::print_header("Table II: summary of results (regenerated)");
  bench::print_machine(Machine::shared_l2(4));
  std::cout << "NO fold: M(p=" << kFold.p << ", B=" << kFold.block << ")\n";
}

void summary_table(bool) {
  util::Table t({"Problem", "T_p meas", "T_p bound", "ratio", "L1 miss meas",
                 "L1 miss bound", "ratio", "NO comm meas", "NO comm bound",
                 "ratio"});
  for (const SummaryLine& l : summary) {
    std::vector<std::string> cells{l.problem};
    for (int k = 0; k < 6; k += 2) {
      cells.push_back(util::Table::fmt(l.cells[k], "%.4g"));
      cells.push_back(util::Table::fmt(l.cells[k + 1], "%.4g"));
      cells.push_back(util::Table::fmt(l.cells[k] / l.cells[k + 1], "%.2f"));
    }
    t.add_row(cells);
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nRatios are measured/bound at the stated sizes; the paper "
               "claims the bounds up to constants,\nso O(1)-to-O(10) flat "
               "ratios reproduce Table II. The per-theorem n-sweeps "
               "follow.\n";
}

/// A Table II line: the MO run (sample 0) and the NO run (sample 1) at one
/// size, against the T_p, L1 and NO communication bounds.
Row t2(const char* problem, std::uint64_t full, std::uint64_t smoke,
       RunFn run, BoundFn steps, BoundFn l1, BoundFn comm) {
  return Row{"", {Machine::shared_l2(4)}, {full, smoke}, run,
             {{"T_p", 0, Counter::kSteps, steps},
              {"L1 misses", 0, Counter::kL1Misses, l1},
              {"NO comm", 1, Counter::kComm, comm}},
             "n", problem};
}

std::vector<Sample> t2_scan(Ctx& ctx, std::uint64_t n) {
  return {reg<Kind::kScan>(ctx, n)[0], no_run(n, 32, kFold, [&](auto& mach) {
            std::vector<std::uint64_t> xs(n, 1);
            no::no_prefix_sum(mach, xs);
          })};
}

std::vector<Sample> t2_transpose(Ctx& ctx, std::uint64_t n) {
  return {reg<Kind::kTranspose>(ctx, n)[0],
          no_run(n, n * n, kFold, [&](auto& mach) {
            std::vector<double> host(n * n, 1.0), host_out;
            no::no_transpose(mach, host, host_out, n);
          })};
}

// NO side: matmul embedded in N-GEP's D on a 2n x 2n matrix, so Theorem
// 6's bound applies at side 2n.
std::vector<Sample> t2_matmul(Ctx& ctx, std::uint64_t n) {
  return {reg<Kind::kMatmul>(ctx, n)[0],
          no_run(2 * n, 256, kFold, [&](auto& mach) {
            std::vector<double> x(4 * n * n, 1.0);
            algo::MatMulEmbedInstance::half = n;
            no::n_gep<algo::MatMulEmbedInstance>(mach, x, 2 * n, true);
          })};
}

std::vector<Sample> t2_gep(Ctx& ctx, std::uint64_t n) {
  return {sim(ctx.cfg, double(n),
              [&](sched::SimExecutor& ex) {
                auto buf = ex.make_buf<double>(n * n);
                for (auto& v : buf.raw()) v = ctx.rng.uniform();
                return ex.run(n * n, [&] {
                  algo::igep<algo::FloydWarshallInstance>(
                      ex, Mat::full(buf.ref(), n, n));
                });
              }),
          no_run(n, 256, kFold, [&](auto& mach) {
            std::vector<double> x(n * n, 1.0);
            no::n_gep<algo::FloydWarshallInstance>(mach, x, n, true);
          })};
}

std::vector<Sample> t2_fft(Ctx& ctx, std::uint64_t n) {
  const std::uint64_t no_n = ctx.smoke ? 1 << 10 : 1 << 12;
  return {reg<Kind::kFft>(ctx, n)[0],
          no_run(no_n, no_n, kFold, [&](auto& mach) {
            std::vector<algo::cplx> x(no_n, algo::cplx(1.0, 0.0));
            no::no_fft(mach, x);
          })};
}

// MO: SPMS; NO: columnsort.
std::vector<Sample> t2_sort(Ctx& ctx, std::uint64_t n) {
  const Sample s = sim(ctx.cfg, double(n), [&](sched::SimExecutor& ex) {
    auto buf = ex.make_buf<std::uint64_t>(n);
    for (auto& v : buf.raw()) v = ctx.rng();
    return ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
  });
  const std::uint64_t no_n = ctx.smoke ? 1 << 10 : 1 << 14;
  return {s, no_run(no_n, no::colsort_shape(no_n).s + 1, kFold,
                    [&](auto& mach) {
                      std::vector<std::int64_t> keys(no_n);
                      for (auto& v : keys) {
                        v = static_cast<std::int64_t>(ctx.rng.below(1u << 30));
                      }
                      no::no_columnsort(
                          mach, keys, std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max());
                    })};
}

std::vector<Sample> t2_listrank(Ctx& ctx, std::uint64_t n) {
  std::vector<std::uint64_t> succ, pred;
  make_list(n, ctx.rng, succ, pred);
  return {listrank<false>(ctx.cfg, succ, pred),
          no_run(n, 32, kFold,
                 [&](auto& mach) { no::no_list_rank(mach, succ, pred); })};
}

// ---- Extra sections --------------------------------------------------------

void scan_no_table(bool smoke) {
  util::Table t({"n", "comm (p=8,B=4)", "supersteps"});
  for (std::uint64_t n : bench::sweep(smoke, {1u << 10, 1u << 12, 1u << 14})) {
    no::NoMachine mach(32, {{8, 4}});
    bench::trace_attach(mach);
    std::vector<std::uint64_t> xs(n, 1);
    no::no_prefix_sum(mach, xs);
    t.add_row({util::Table::fmt(std::uint64_t(n)),
               util::Table::fmt(mach.communication(0)),
               util::Table::fmt(mach.supersteps())});
  }
  std::cout << "\n-- NO prefix sums --\n";
  t.print(std::cout);
}

// Separator order vs row-major vs scrambled, and the random (expander)
// control -- L1 misses per nonzero.
void spmdv_ablation(bool smoke) {
  bench::print_header("Ablation: ordering & separator structure (L1)");
  const std::uint64_t side = smoke ? 48 : 192;
  util::Table t({"matrix (n=" + std::to_string(side * side) + ")",
                 "L1 misses", "misses/nnz"});
  auto add_row = [&](const std::string& name, const algo::SparseMatrix& a) {
    const std::uint64_t misses =
        spmdv(Machine::shared_l2(4), 0, a).hm.level_max_misses[0];
    t.add_row({name, util::Table::fmt(misses),
               util::Table::fmt(double(misses) / double(a.nnz()), "%.4f")});
  };
  add_row("grid, separator order", algo::grid_matrix_reordered(side));
  add_row("grid, row-major order", algo::grid_matrix(side));
  {
    algo::SparseMatrix g = algo::grid_matrix(side);
    std::vector<std::uint64_t> scramble(g.n);
    for (std::uint64_t i = 0; i < g.n; ++i) scramble[i] = i;
    util::Xoshiro256 rng(7);
    for (std::uint64_t i = g.n; i > 1; --i) {
      std::swap(scramble[i - 1], scramble[rng.below(i)]);
    }
    add_row("grid, scrambled order", algo::permute_matrix(g, scramble));
  }
  add_row("random expander (control)", algo::random_matrix(side * side, 4));
  t.print(std::cout);
}

// Table I: D vs D* communication across (p, B) folds, n = 128, N = 256 PEs.
void ngep_d_vs_dstar(bool smoke) {
  bench::print_header("Table I / Theorem 6: N-GEP (D vs D*)");
  const std::uint64_t n = smoke ? 32 : 128, pes = smoke ? 64 : 256;
  std::vector<no::FoldConfig> folds =
      smoke ? std::vector<no::FoldConfig>{{16, 4}, {64, 4}}
            : std::vector<no::FoldConfig>{{16, 4}, {64, 4}, {256, 4}, {64, 16}};
  util::Table t({"fold (p,B)", "comm D", "comm D*", "D/D*"});
  std::vector<std::uint64_t> comm[2];
  for (bool dstar : {false, true}) {
    auto x = rand_matrix(n, 1);
    no::NoMachine mach(pes, folds);
    bench::trace_attach(mach);
    no::n_gep<algo::FloydWarshallInstance>(mach, x, n, dstar);
    for (std::size_t f = 0; f < folds.size(); ++f) {
      comm[dstar].push_back(mach.communication(f));
    }
  }
  for (std::size_t f = 0; f < folds.size(); ++f) {
    t.add_row({"(" + std::to_string(folds[f].p) + "," +
                   std::to_string(folds[f].block) + ")",
               util::Table::fmt(comm[0][f]), util::Table::fmt(comm[1][f]),
               util::Table::fmt(double(comm[0][f]) / double(comm[1][f]),
                                "%.3f")});
  }
  std::cout << "\n-- D vs D* communication (n=128, N=256 PEs) --\n";
  t.print(std::cout);
}

// D-BSP communication time under mesh-like g.
void ngep_dbsp(bool smoke) {
  util::Table t({"n", "D-BSP time (D)", "D-BSP time (D*)"});
  for (std::uint64_t n : bench::sweep(smoke, {32u, 64u, 128u})) {
    double time[2];
    for (bool dstar : {false, true}) {
      auto x = rand_matrix(n, 4);
      no::NoMachine mach(64, {{64, 4}}, no::DbspConfig::mesh_like(64));
      bench::trace_attach(mach);
      no::n_gep<algo::FloydWarshallInstance>(mach, x, n, dstar);
      time[dstar] = mach.dbsp_time();
    }
    t.add_row({util::Table::fmt(std::uint64_t(n)),
               util::Table::fmt(time[0], "%.4g"),
               util::Table::fmt(time[1], "%.4g")});
  }
  std::cout << "\n-- D-BSP(64, mesh-like) communication time --\n";
  t.print(std::cout);
}

void listrank_scaling(const Machine& cfg,
                      const std::vector<std::vector<Sample>>& runs) {
  util::Table t({"n", "work", "span", "T_p (p=4)", "T_1", "speedup"});
  for (const auto& r : runs) {
    const sched::RunMetrics& m = r[0].hm;
    const double tp = m.parallel_steps(cfg.cores()), t1 = m.parallel_steps(1);
    t.add_row({util::Table::fmt(std::uint64_t(r[0].n)),
               util::Table::fmt(m.work), util::Table::fmt(m.span),
               util::Table::fmt(tp, "%.4g"), util::Table::fmt(t1, "%.4g"),
               util::Table::fmt(t1 / tp, "%.2f")});
  }
  std::cout << "\n-- MO-LR parallel time scaling --\n";
  t.print(std::cout);
}

// Work across graph families at n = 4096 vertices (1024 under --smoke).
void cc_families(bool smoke) {
  const std::uint32_t fam_n = smoke ? 1024 : 4096;
  util::Table t({"graph family", "n", "edges", "work", "L1 misses"});
  auto row = [&](const std::string& name, const algo::EdgeList& g) {
    const Sample s =
        sim(Machine::shared_l2(4), 0, [&](sched::SimExecutor& ex) {
          return ex.run(16 * (g.n + 1),
                        [&] { algo::mo_connected_components(ex, g); });
        });
    t.add_row({name, util::Table::fmt(std::uint64_t(g.n)),
               util::Table::fmt(std::uint64_t(g.edges.size())),
               util::Table::fmt(s.hm.work),
               util::Table::fmt(s.hm.level_max_misses[0])});
  };
  algo::EdgeList path, star;
  path.n = star.n = fam_n;
  for (std::uint32_t v = 1; v < fam_n; ++v) {
    path.edges.emplace_back(v - 1, v);
    star.edges.emplace_back(0u, v);
  }
  row("path (deep)", path);
  row("star (hooking stress)", star);
  row("grid 64x64", grid_graph(64));
  row("random sparse", random_graph(fam_n, 2 * fam_n, 7));
  row("many components", random_graph(fam_n, fam_n / 4, 8));
  std::cout << "\n-- graph-family robustness --\n";
  t.print(std::cout);
}

/// An NO fold sweep at fixed input: communication (and, over p at B = 4,
/// computation) of `run` on each fold.
template <class Fn>
void fold_sweep(const std::string& title, bool over_p,
                const std::vector<std::uint32_t>& values, Fn&& run) {
  util::Table t(over_p
                    ? std::vector<std::string>{"p", "communication (B=4)",
                                               "computation"}
                    : std::vector<std::string>{"B", "communication (p=8)"});
  for (std::uint32_t v : values) {
    const Sample s = no_run(0, 32, over_p ? no::FoldConfig{v, 4}
                                          : no::FoldConfig{8, v}, run);
    std::vector<std::string> cells{util::Table::fmt(std::uint64_t(v)),
                                   util::Table::fmt(std::uint64_t(s.comm))};
    if (over_p) cells.push_back(util::Table::fmt(std::uint64_t(s.comp)));
    t.add_row(cells);
  }
  std::cout << "\n-- " << title << " --\n";
  t.print(std::cout);
}

// NO-LR at fixed n: computation must scale down with p, and blocks
// amortize words.
void nolr_sweeps(bool smoke) {
  const std::uint64_t n = smoke ? 1 << 10 : 1 << 12;
  for (bool over_p : {true, false}) {
    util::Xoshiro256 rng(over_p ? 5 : 6);
    std::vector<std::uint64_t> succ, pred;
    make_list(n, rng, succ, pred);
    fold_sweep(over_p ? "NO-LR p-sweep (n=4096)" : "NO-LR B-sweep (n=4096)",
               over_p,
               over_p ? std::vector<std::uint32_t>{1, 2, 4, 8, 16, 32}
                      : std::vector<std::uint32_t>{1, 2, 4, 8, 16},
               [&](auto& mach) { no::no_list_rank(mach, succ, pred); });
  }
}

void nocc_p_sweep(bool smoke) {
  const std::uint64_t pn = smoke ? 512 : 2048;
  const algo::EdgeList g = random_graph(pn, 2 * pn, 3);
  fold_sweep("NO-CC p-sweep (n=2048, m=4096)", true,
             bench::sweep(smoke, {1u, 2u, 4u, 8u, 16u, 32u}, 3),
             [&](auto& mach) { no::no_connected_components(mach, g); });
}

// ---------------------------------------------------------------------------
// The row table, in print order.
// ---------------------------------------------------------------------------

std::vector<Entry> table() {
  const Machine shared = Machine::shared_l2(4);
  const Machine three = Machine::three_level(4, 4);
  const Machine small = Machine::small_caches();
  const std::vector<Machine> mt_machines{shared, three, Machine::figure1()};
  const std::vector<Machine> no_fold{Machine{}};
  using C = Counter;
  return {
      // ---- Table II ----
      Section{summary_header},
      t2("Prefix sum", 1 << 16, 1 << 12, t2_scan, at<bd::scan_steps>,
         at<bd::scan_misses>, at<bd::no_pass_comm>),
      t2("Matrix transposition", 256, 64, t2_transpose,
         at<bd::transpose_steps>, at<bd::transpose_misses>,
         at<bd::no_transpose_comm>),
      t2("Matrix multiplication", 128, 32, t2_matmul, at<bd::gep_steps>,
         at<bd::gep_misses>, at<bd::no_gep_comm>),
      t2("GEP", 128, 32, t2_gep, at<bd::gep_steps>, at<bd::gep_misses>,
         at<bd::no_gep_comm>),
      t2("FFT", 1 << 16, 1 << 12, t2_fft, at<bd::fft_steps>,
         at<bd::fft_misses>, at<bd::no_fft_comm>),
      t2("Sorting", 1 << 16, 1 << 12, t2_sort, at<bd::sort_steps>,
         at<bd::sort_misses>, at<bd::no_pass_comm>),
      t2("List ranking", 1 << 13, 1 << 10, t2_listrank,
         at<bd::sort_steps>, at<bd::sort_misses>, at<bd::no_listrank_comm>),
      Section{summary_table},

      // ---- Prefix sums (Table II row 1, Section III-A) ----
      // MO: Theta(n/(q_i B_i)) misses per level, Theta(n/p) parallel steps
      // with O(B_1 log n) span.  NO: the measured communication curve on
      // M(p, B) once each processor's slice is local.
      Row{"Table II row 1: prefix sums", {three},
          {1u << 14, 1u << 16, 1u << 18, 1u << 20}, reg<Kind::kScan>,
          {{"scan L{L} misses vs n/(q_i B_i) + B_i", 0, C::kMisses,
            at<bd::scan_misses>},
           {"scan span vs n/p + B_1 log2 n", 0, C::kSpan,
            at<bd::scan_steps>}}},
      Section{scan_no_table},

      // ---- Theorem 1 / Figure 2: MO-MT ----
      // Cache complexity O(n^2/(q_i B_i) + B_i) at every level of machines
      // with different depths (the bound is oblivious), and O(n^2/p + B_1)
      // parallel steps: span stays constant as n grows, where the recursive
      // cache-oblivious transposition has Theta(log n) fork depth, and the
      // naive row-major loop misses ~n^2 times (no 1/B factor).
      Row{"Theorem 1 / Figure 2: MO-MT matrix transposition", mt_machines,
          {128u, 256u, 512u, 1024u}, reg<Kind::kTranspose>,
          {{"MO-MT L{L} max misses vs n^2/(q_i B_i) + B_i", 0, C::kMisses,
            at<bd::transpose_misses>},
           {"MO-MT span vs B_1 + n^2/p", 0, C::kSpan,
            at<bd::transpose_steps>}}},
      Row{"", mt_machines, {128u, 256u, 512u, 1024u},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            std::vector<Sample> out;
            for (bool naive : {false, true}) {
              out.push_back(sim(x.cfg, double(n), [&](sched::SimExecutor& ex) {
                auto a = ex.make_buf<double>(n * n);
                auto b = ex.make_buf<double>(n * n);
                for (auto& v : a.raw()) v = 1.0;
                return ex.run(3 * n * n, [&] {
                  if (naive) {
                    algo::naive_transpose(ex, a.ref(), b.ref(), n);
                  } else {
                    algo::recursive_transpose(ex, a.ref(), b.ref(), n);
                  }
                });
              }));
            }
            return out;
          },
          {{"recursive transpose span vs (n^2/p + B_1 log n)", 0, C::kSpan,
            [](auto& c, auto, auto& s) {
              return s.n * s.n / c.cores() +
                     double(c.block(1)) * util::ilog2(std::uint64_t(s.n));
            }},
           {"naive transpose L1 misses vs n^2/q_1 (no 1/B)", 1, C::kL1Misses,
            [](auto& c, auto, auto& s) {
              return s.n * s.n / c.caches_at(1);
            }}}},

      // ---- Theorem 2 / Figure 3: MO-FFT ----
      // O((2n/(q_i B_i)) log_{C_i} n + B_i) misses per level and
      // O((n/p + B_1) log n) parallel steps; the unblocked iterative
      // radix-2 FFT pays log_2(n/C) passes over the data instead of
      // log_C n, so it misses more at large n.
      Row{"Theorem 2 / Figure 3: MO-FFT", {shared, three},
          {1u << 12, 1u << 14, 1u << 16, 1u << 18}, reg<Kind::kFft>,
          {{"MO-FFT L{L} max misses vs (2n/(q_i B_i)) log_{C_i} n + B_i", 0,
            C::kMisses, at<bd::fft_misses>},
           {"MO-FFT parallel steps (W/p + span) vs (n/p+B_1) log n", 0,
            C::kSteps, at<bd::fft_steps>}}},
      Row{"", {shared, three}, {1u << 12, 1u << 14, 1u << 16, 1u << 18},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            return {sim(x.cfg, double(n), [&](sched::SimExecutor& ex) {
              auto buf = ex.make_buf<algo::cplx>(n);
              for (auto& v : buf.raw()) v = algo::cplx(1.0, 0.0);
              return ex.run(6 * n,
                            [&] { algo::iterative_fft(ex, buf.ref()); });
            })};
          },
          {{"iterative FFT L1 misses vs (n/(q_1 B_1)) log2(n/C_1)", 0,
            C::kL1Misses, [](auto& c, auto, auto& s) {
              const double passes =
                  std::max(1.0, std::log2(s.n / double(c.capacity(1))));
              return 2.0 * s.n / (c.caches_at(1) * c.block(1)) * passes;
            }}}},

      // ---- Theorem 3: SPMS sorting ----
      // O((n/(q_i B_i)) log_{C_i} n + B_i) misses per level and
      // Theta(n log n) work; binary mergesort pays log_2(n/C_1) passes, so
      // strictly more L1 misses at n >> C_1 (the crossover the paper's
      // sqrt(n) recursion exists to win).
      Row{"Theorem 3: SPMS sorting", {shared, three},
          {1u << 13, 1u << 14, 1u << 15, 1u << 16}, reg<Kind::kSort, true>,
          {{"SPMS L{L} max misses vs (n/(q_i B_i)) log_{C_i} n + B_i", 0,
            C::kMisses, at<bd::sort_misses>},
           {"SPMS work vs n log2 n", 0, C::kWork, at<bd::sort_work>}}},
      Row{"", {shared, three}, {1u << 13, 1u << 14, 1u << 15, 1u << 16},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            return {sim(x.cfg, double(n), [&](sched::SimExecutor& ex) {
              // The keys Xoshiro256(n) draws after SPMS's n keys.
              util::Xoshiro256 rng(n);
              for (std::uint64_t i = 0; i < n; ++i) rng();
              auto buf = ex.make_buf<std::uint64_t>(n);
              for (auto& v : buf.raw()) v = rng();
              return ex.run(4 * n,
                            [&] { algo::mergesort_baseline(ex, buf.ref()); });
            })};
          },
          {{"mergesort L1 misses vs (n/(q_1 B_1)) log2(n/C_1)", 0,
            C::kL1Misses, [](auto& c, auto, auto& s) {
              const double passes =
                  std::max(1.0, std::log2(s.n / double(c.capacity(1))));
              return s.n / (c.caches_at(1) * c.block(1)) * passes;
            }}}},

      // ---- Theorem 4 / Figure 4: MO-SpM-DV ----
      // Grid matrices (n^(1/2)-edge separator, eps = 1/2) reordered by the
      // separator tree miss O((n/q_i)(1/B_i + 1/C_i^(1/2))) times per
      // level, near-scan behaviour; trees (eps = 0, centroid separators)
      // are closer still.  The ablation's random matrix (no separator
      // theorem) misses about once per nonzero at n >> C, and scrambling
      // the grid's separator order destroys the bound.
      Row{"Theorem 4 / Figure 4: MO-SpM-DV", {shared}, {48u, 96u, 144u, 192u},
          [](Ctx& x, std::uint64_t side) -> std::vector<Sample> {
            const std::uint64_t n = side * side;
            return {spmdv(x.cfg, n, algo::grid_matrix_reordered(side)),
                    spmdv(x.cfg, n, algo::tree_matrix_reordered(n))};
          },
          {{"grid (eps=1/2, reordered) L{L} misses vs (n/q)(1/B + 1/sqrt(C))",
            0, C::kMisses,
            [](auto& c, auto l, auto& s) {
              return bd::spmdv_misses(c, l, s.n, 0.5);
            }},
           {"tree (eps=0, centroid order) L{L} misses vs (n/q)(1/B + 1/C)", 1,
            C::kMisses, [](auto& c, auto l, auto& s) {
              return bd::spmdv_misses(c, l, s.n, 0.0);
            }}}},
      Section{spmdv_ablation},

      // ---- Theorem 5 / Figure 5: I-GEP under SB ----
      // O(n^3/(q_i B_i sqrt(C_i)) + n^2/(q_i B_i) + B_i) misses per level
      // for three GEP instances (Floyd-Warshall, Gaussian elimination, and
      // matrix multiplication via function D) and O(n^3/p) parallel steps;
      // the classic k-major GEP loop (Figure 5) pays Theta(n^3/B_1) at L1,
      // missing the sqrt(C) divisor I-GEP's anchoring buys.  The small
      // caches reach n^2 >> C_i at simulable n.
      Row{"Theorem 5 / Figure 5: I-GEP under SB", {small},
          {32u, 64u, 128u, 256u}, reg<Kind::kGep>,
          {{"FW L{L} misses vs n^3/(q_i B_i sqrt(C_i)) + n^2/(q_i B_i) + B_i",
            0, C::kMisses, at<bd::gep_misses>},
           {"FW parallel steps vs n^3/p", 0, C::kSteps, at<bd::gep_steps>}}},
      Row{"", {small}, {32u, 64u, 128u, 256u}, gaussian,
          {{"Gaussian L{L} misses vs n^3/(q_i B_i sqrt(C_i)) + n^2/(q_i B_i) "
            "+ B_i",
            0, C::kMisses, at<bd::gep_misses>},
           {"Gaussian parallel steps vs n^3/p", 0, C::kSteps,
            at<bd::gep_steps>}}},
      Row{"", {small}, {32u, 64u, 128u, 256u}, reg<Kind::kMatmul>,
          {{"matmul (fn D) L1 misses vs n^3/(q_1 B_1 sqrt(C_1)) + n^2/(q_1 "
            "B_1) + B_1",
            0, C::kL1Misses, at<bd::gep_misses>}}},
      Row{"", {small}, {32u, 64u, 128u, 256u},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            return {sim(x.cfg, double(n), [&](sched::SimExecutor& ex) {
              auto buf = ex.make_buf<double>(n * n);
              for (auto& v : buf.raw()) v = 1.0;
              return ex.run(n * n, [&] {
                algo::gep_loop<algo::FloydWarshallInstance>(
                    ex, Mat::full(buf.ref(), n, n));
              });
            })};
          },
          {{"GEP loop (baseline) L1 misses vs n^3/(q_1 B_1)", 0, C::kL1Misses,
            [](auto& c, auto, auto& s) {
              return s.n * s.n * s.n / (c.caches_at(1) * c.block(1));
            }}}},

      // ---- Table I / Theorem 6: N-GEP on M(p, B) and D-BSP ----
      // I-GEP's D order needs some U/V quadrants twice within a round,
      // concentrating traffic; N-GEP's D* uses each exactly once, so it
      // communicates less at every (p, B).  Communication is
      // O(n^2/(sqrt(p) B) + n log^2 n), computation Theta(n^3/p), and the
      // D-BSP communication time is finite.
      Section{ngep_d_vs_dstar},
      Row{"", no_fold, {32u, 64u, 128u, 256u},
          [](Ctx&, std::uint64_t n) -> std::vector<Sample> {
            return {no_run(n, 256, {64, 4}, [&](auto& mach) {
              auto x = rand_matrix(n, 2);
              no::n_gep<algo::FloydWarshallInstance>(mach, x, n, true);
            })};
          },
          {{"N-GEP(D*) comm vs n^2/(sqrt(p)B) + n log^2 n, p=64, B=4", 0,
            C::kComm, at<bd::no_gep_comm>},
           {"N-GEP(D*) computation vs n^3/p", 0, C::kComp,
            at<bd::no_gep_comp>}}},
      Row{"", no_fold, {4u, 16u, 64u, 256u},
          [](Ctx& x, std::uint64_t p) -> std::vector<Sample> {
            const std::uint64_t n = x.smoke ? 64 : 128;
            Sample s = no_run(n, 256, {std::uint32_t(p), 4}, [&](auto& mach) {
              auto m = rand_matrix(n, 3);
              no::n_gep<algo::FloydWarshallInstance>(mach, m, n, true);
            });
            s.x = double(p);
            return {s};
          },
          {{"N-GEP(D*) comm vs n^2/(sqrt(p)B) + n log^2 n, n=128, B=4", 0,
            C::kComm, at<bd::no_gep_comm>}},
          "p"},
      Section{ngep_dbsp},

      // ---- Theorem 7: MO-LR list ranking ----
      // Theta(n log n) work (sorts dominate each contraction level), cache
      // complexity dominated by (n/(q_i B_i)) log_{C_i} n, and T_p scaling
      // with p, while the sequential pointer chase has span = work and one
      // random access per hop (about n L1 misses, B_1 times a scan's).
      Row{"Theorem 7: MO-LR list ranking", {shared},
          {1u << 11, 1u << 12, 1u << 13, 1u << 14}, reg<Kind::kListRank, true>,
          {{"MO-LR work vs n log2 n", 0, C::kWork, at<bd::sort_work>},
           {"MO-LR L1 misses vs (n/(q_1 B_1)) log_{C_1} n + B_1", 0,
            C::kL1Misses, at<bd::sort_misses>}},
          "n", nullptr, listrank_scaling},
      Row{"", {shared}, {1u << 11, 1u << 12, 1u << 13, 1u << 14},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            util::Xoshiro256 rng(n);
            std::vector<std::uint64_t> succ, pred;
            make_list(n, rng, succ, pred);
            return {listrank<true>(x.cfg, succ, pred)};
          },
          {{"sequential chase L1 misses vs n (one per hop)", 0, C::kL1Misses,
            [](auto&, auto, auto& s) { return s.n; }}}},

      // ---- Theorem 8: MO connected components ----
      // Total work of shape O(N log N log(N/B_1)) for N = n + m (a sort per
      // hooking round times O(log) contraction rounds), misses dominated by
      // the sort passes, and robustness across graph families (path, star,
      // grid, random -- the star defeats naive min-hooking).
      Row{"Theorem 8: MO connected components", {shared},
          {1u << 10, 1u << 11, 1u << 12, 1u << 13},
          [](Ctx& x, std::uint64_t n) -> std::vector<Sample> {
            const algo::EdgeList g = random_graph(n, 2 * n, n);
            return {sim(x.cfg, double(n + g.edges.size()),
                        [&](sched::SimExecutor& ex) {
                          return ex.run(16 * n, [&] {
                            algo::mo_connected_components(ex, g);
                          });
                        })};
          },
          {{"MO-CC work vs N log2(N) log2(N/B_1), N = n+m", 0, C::kWork,
            at<bd::cc_work>},
           {"MO-CC L1 misses vs (N/(q_1 B_1)) log_{C_1}N log2(N/B_1)", 0,
            C::kL1Misses, at<bd::cc_misses>}},
          "N"},
      Section{cc_families},

      // ---- Theorem 9: NO-LR on M(p, B) ----
      // Computation Theta((n/p) log n), halving when p doubles;
      // communication dominated by the O(1) sorts and scans per
      // contraction level, growing about linearly in n at fixed (p, B) and
      // falling with B; nodes are spread evenly over the PEs (NoExecutor's
      // block-distributed buffers, the distinguishing choice of VI-B).
      Row{"Theorem 9: NO-LR on M(p, B)", no_fold,
          {1u << 10, 1u << 11, 1u << 12, 1u << 13},
          [](Ctx&, std::uint64_t n) -> std::vector<Sample> {
            util::Xoshiro256 rng(n);
            std::vector<std::uint64_t> succ, pred;
            make_list(n, rng, succ, pred);
            return {no_run(n, 32, kFold, [&](auto& mach) {
              no::no_list_rank(mach, succ, pred);
            })};
          },
          {{"NO-LR communication vs n/(pB) * log n, p=8, B=4", 0, C::kComm,
            at<bd::no_listrank_comm>},
           {"NO-LR computation vs (n/p) log2 n, p=8", 0, C::kComp,
            at<bd::no_listrank_comp>}}},
      Section{nolr_sweeps},

      // ---- Theorem 10: NO connected components on M(p, B) ----
      // Communication ~ (N~/(pB)) per sort pass times the contraction
      // rounds and computation Theta((N~/p) log n), for N~ = n + m log n;
      // both drop with p, and the shapes hold across graph families.
      Row{"Theorem 10: NO connected components on M(p, B)", no_fold,
          {512u, 1024u, 2048u, 4096u},
          [](Ctx&, std::uint64_t n) -> std::vector<Sample> {
            const algo::EdgeList g = random_graph(n, 2 * n, n);
            Sample s = no_run(n, 32, kFold, [&](auto& mach) {
              no::no_connected_components(mach, g);
            });
            s.m = double(g.edges.size());
            return {s};
          },
          {{"NO-CC communication vs (N~/(pB)) log n, p=8, B=4", 0, C::kComm,
            at<bd::no_cc_comm>},
           {"NO-CC computation vs (N~/p) log2 n, p=8", 0, C::kComp,
            [](auto&, auto, auto& s) {
              return bd::no_cc_comp(s.n, s.m, s.p);
            }}}},
      Section{nocc_p_sweep},
  };
}

std::string level_title(std::string title, std::uint32_t lvl) {
  const std::size_t pos = title.find("{L}");
  if (pos != std::string::npos) title.replace(pos, 3, std::to_string(lvl));
  return title;
}

/// Prints one series, x / measured / model / ratio, with the fitted log-log
/// slopes and the ratio spread (a flat ratio means the bound's shape holds).
void print_series(const std::string& title, const char* axis,
                  const std::vector<std::vector<Sample>>& runs,
                  const SeriesSpec& spec, const Machine& cfg,
                  std::uint32_t lvl) {
  util::Table t({axis, "measured", "model", "ratio"});
  std::vector<double> x, meas, model;
  for (const auto& r : runs) {
    const Sample& s = r[spec.run];
    x.push_back(s.x);
    meas.push_back(read(spec.counter, s, lvl, cfg.cores()));
    model.push_back(spec.bound(cfg, lvl, s));
    t.add_row({util::Table::fmt(x.back(), "%.0f"),
               util::Table::fmt(meas.back(), "%.4g"),
               util::Table::fmt(model.back(), "%.4g"),
               util::Table::fmt(meas.back() / model.back(), "%.3f")});
  }
  std::cout << "\n-- " << title << " --\n";
  t.print(std::cout);
  std::cout << "loglog slope: measured "
            << util::Table::fmt(util::loglog_slope(x, meas), "%.3f")
            << " vs model "
            << util::Table::fmt(util::loglog_slope(x, model), "%.3f")
            << "; ratio spread "
            << util::Table::fmt(util::ratio_spread(meas, model), "%.2f")
            << "x (flat ratio => bound shape holds)\n";
}

/// Runs `row` on each of its machines and prints its series (or, for a
/// Table II line, records its three cells).
void run_row(const Row& row, bool smoke, util::Xoshiro256& rng,
             std::string& last_machine) {
  if (!row.header.empty()) bench::print_header(row.header);
  for (const Machine& cfg : row.machines) {
    if (row.problem == nullptr && cfg.cache_levels() > 0 &&
        (!row.header.empty() || cfg.describe() != last_machine)) {
      bench::print_machine(cfg);
      last_machine = cfg.describe();
    }
    Ctx ctx{cfg, smoke, rng};
    std::vector<std::vector<Sample>> runs;
    std::vector<std::uint64_t> points = row.points;
    if (row.problem != nullptr) {
      points = {row.points[smoke ? 1 : 0]};
    } else if (smoke && points.size() > 2) {
      points.resize(2);
    }
    for (std::uint64_t pt : points) {
      runs.push_back(row.run(ctx, pt));
    }
    if (row.problem != nullptr) {
      SummaryLine line{row.problem, {}};
      for (std::size_t k = 0; k < 3; ++k) {
        const SeriesSpec& spec = row.series[k];
        const Sample& s = runs[0][spec.run];
        line.cells[2 * k] = read(spec.counter, s, 1, cfg.cores());
        line.cells[2 * k + 1] = spec.bound(cfg, 1, s);
      }
      summary.push_back(line);
      continue;
    }
    for (const SeriesSpec& spec : row.series) {
      const std::uint32_t levels =
          spec.counter == Counter::kMisses ? cfg.cache_levels() : 1;
      for (std::uint32_t lvl = 1; lvl <= levels; ++lvl) {
        print_series(level_title(spec.title, lvl), row.axis, runs, spec, cfg,
                     lvl);
      }
    }
    if (row.table != nullptr) row.table(cfg, runs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  util::Xoshiro256 rng(2026);
  std::string last_machine;
  for (const Entry& e : table()) {
    if (const Row* row = std::get_if<Row>(&e)) {
      run_row(*row, smoke, rng, last_machine);
    } else {
      std::get<Section>(e)(smoke);
    }
  }
  return 0;
}
