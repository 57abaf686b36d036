// Experiment: Section II's scheduling-tension claim + DESIGN.md ablations.
//
// The paper argues that the "proportionate slice" strategy (each core uses
// a 1/p'_i slice of every higher-level cache, as in the analyses of [14],
// [15]) wastes the shared levels, while SB anchoring assigns whole tasks to
// whole caches.  In this deterministic simulator parallel siblings execute
// depth-first, so the *interleaving* pollution of shared caches is not
// visible; what is visible -- and reported here -- is the locality loss at
// the anchoring level itself: slice mode scatters space-bounded tasks
// round-robin over cores, destroying the reuse that anchoring guarantees
// (L1 misses grow by the factor the paper predicts per level).
//
// Also ablated: CGC's B_1-boundary rounding (Section III's ping-ponging
// discussion): with rounding disabled, segment boundaries straddle
// coherence blocks and writes ping-pong between L1s.
//
// Everything here runs on the simulator; the native scheduler's wall-clock
// thread sweep is bench_wallclock.
#include <iostream>

#include "algo/gep.hpp"
#include "algo/sort.hpp"
#include "bench/common.hpp"
#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

using Ref = sched::SimRef<double>;
using Mat = sched::MatView<Ref>;

sched::RunMetrics run_gep(const hm::MachineConfig& cfg, bool slice,
                          std::uint64_t n) {
  sched::SimPolicy policy;
  policy.slice_mode = slice;
  sched::SimExecutor ex(cfg, policy);
  bench::trace_attach(ex);
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(1);
  for (auto& v : buf.raw()) v = rng.uniform();
  return ex.run(n * n, [&] {
    algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n));
  });
}

sched::RunMetrics run_sort(const hm::MachineConfig& cfg, bool slice,
                           std::uint64_t n) {
  sched::SimPolicy policy;
  policy.slice_mode = slice;
  sched::SimExecutor ex(cfg, policy);
  bench::trace_attach(ex);
  auto buf = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(2);
  for (auto& v : buf.raw()) v = rng();
  return ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  bench::print_header("Scheduler ablations (Section II tension, DESIGN.md)");
  // 16 cores, 4 L2 caches: anchoring has real choices to make.
  const hm::MachineConfig cfg("abl", {hm::LevelSpec{256, 8, 1},
                                      hm::LevelSpec{2048, 8, 4},
                                      hm::LevelSpec{32768, 16, 4}});
  bench::print_machine(cfg);

  {
    util::Table t({"workload", "L1 max misses (SB)", "L1 max misses (slice)",
                   "slice/SB"});
    for (std::uint64_t n : bench::sweep(smoke, {64u, 128u, 256u})) {
      const auto sb = run_gep(cfg, false, n);
      const auto sl = run_gep(cfg, true, n);
      t.add_row({"I-GEP FW n=" + std::to_string(n),
                 util::Table::fmt(sb.level_max_misses[0]),
                 util::Table::fmt(sl.level_max_misses[0]),
                 util::Table::fmt(double(sl.level_max_misses[0]) /
                                      double(sb.level_max_misses[0]),
                                  "%.2f")});
    }
    for (std::uint64_t n : bench::sweep(smoke, {1u << 14, 1u << 16}, 1)) {
      const auto sb = run_sort(cfg, false, n);
      const auto sl = run_sort(cfg, true, n);
      t.add_row({"SPMS n=" + std::to_string(n),
                 util::Table::fmt(sb.level_max_misses[0]),
                 util::Table::fmt(sl.level_max_misses[0]),
                 util::Table::fmt(double(sl.level_max_misses[0]) /
                                      double(sb.level_max_misses[0]),
                                  "%.2f")});
    }
    std::cout << "\n-- SB anchoring vs proportionate slice --\n";
    t.print(std::cout);
    std::cout << "(shared-level interleaving pollution is not observable "
                 "under the simulator's\n depth-first sibling execution; "
                 "see DESIGN.md approximation notes)\n";
  }

  // CGC=>SB level-choice ablation (Section III-C): t = max(i, j) vs the
  // naive fit-only t = i.  The j term matters exactly when there are fewer
  // subtasks than caches at the fitting level: the paper's rule anchors
  // each subtask *higher*, so its shadow keeps many cores for nested CGC
  // parallelism; fit-only pins each subtask to one L1 and strands the rest
  // of the machine.  Microbench: m small subtasks with tiny space bounds,
  // each running an inner pfor over `inner` elements (16-core machine).
  {
    util::Table t({"m subtasks", "span (t=max(i,j))", "span (t=i only)",
                   "fit-only/paper"});
    const std::uint64_t inner = smoke ? 1 << 12 : 1 << 16;
    for (std::uint64_t m : bench::sweep(smoke, {2u, 4u, 8u, 16u})) {
      std::uint64_t span[2];
      for (int mode = 0; mode < 2; ++mode) {
        sched::SimPolicy policy;
        policy.cgcsb_fit_only = (mode == 1);
        sched::SimExecutor ex(hm::MachineConfig::three_level(4, 4), policy);
        bench::trace_attach(ex);
        span[mode] = ex.run(1ull << 40, [&] {
          ex.cgc_sb_pfor(m, /*space=*/64, [&](std::uint64_t) {
            ex.cgc_pfor(0, inner, 1,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                          ex.tick(hi - lo);
                        });
          });
        }).span;
      }
      t.add_row({util::Table::fmt(std::uint64_t(m)),
                 util::Table::fmt(span[0]), util::Table::fmt(span[1]),
                 util::Table::fmt(double(span[1]) / double(span[0]),
                                  "%.2f")});
    }
    std::cout << "\n-- CGC=>SB anchoring level: max(i,j) vs fit-only --\n";
    t.print(std::cout);
  }

  // CGC block-boundary rounding ablation: 6 cores make ceil(n/6)-sized
  // chunks that straddle B_1 = 8-word blocks when rounding is off.
  {
    util::Table t({"n (x20 passes)", "pingpong (B1-aligned)",
                   "pingpong (unaligned)"});
    for (std::uint64_t n : bench::sweep(smoke, {1000u, 4000u, 16000u})) {
      std::uint64_t pp[2] = {0, 0};
      for (int mode = 0; mode < 2; ++mode) {
        sched::SimPolicy policy;
        policy.respect_block_boundaries = (mode == 0);
        sched::SimExecutor ex(hm::MachineConfig::shared_l2(6), policy);
        bench::trace_attach(ex);
        auto buf = ex.make_buf<double>(n);
        for (int rep = 0; rep < 20; ++rep) {
          pp[mode] += ex.run(3 * n, [&] {
            auto v = buf.ref();
            sched::cgc_pfor_each(ex, 0, n, 1,
                                 [&](std::uint64_t k) { v.store(k, 1.0); });
          }).pingpong;
        }
      }
      t.add_row({util::Table::fmt(std::uint64_t(n)), util::Table::fmt(pp[0]),
                 util::Table::fmt(pp[1])});
    }
    std::cout << "\n-- CGC B_1-boundary rounding vs naive chunking --\n";
    t.print(std::cout);
  }

  return 0;
}
