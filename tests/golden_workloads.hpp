// Shared driver for the golden-counter regression test.
//
// Runs small fixed sweeps of the paper's workloads (scan, MO-MT, MO-SPMS
// sort, I-GEP) on fixed machine configs, plus one MO-LR run, and
// serialises every observable simulator metric -- per-level misses,
// evictions, invalidations, the ping-pong count, and work/span -- into a
// flat vector.  The expected values hard-coded in test_golden_counters.cpp
// were captured from the simulator as of PR 2 (the pre-flat-table
// implementation; the MO-LR row was added with the routing plans of
// algo/listrank.hpp); any future change that perturbs an observable count
// fails tier-1.
//
// To regenerate after an *intentional* metric change, run
//   OBLIV_GOLDEN_REGEN=1 ./obliv_tests --gtest_filter='GoldenCounters.*'
// and paste the printed literals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"

namespace obliv::golden {

/// Flattened observable state of one simulated run, in a fixed order.
struct GoldenRun {
  std::string name;                    ///< "workload/config/n"
  std::vector<std::uint64_t> counts;   ///< see flatten() for the layout
};

/// Appends, for each cache level: total misses, max misses, total
/// evictions, total invalidations; then pingpong, work, span.
inline void flatten(sched::SimExecutor& ex, const sched::RunMetrics& m,
                    std::vector<std::uint64_t>& out) {
  const hm::MachineConfig& cfg = ex.config();
  hm::CacheSim& sim = ex.cache_sim();
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    std::uint64_t total_miss = 0, max_miss = 0, evic = 0, inval = 0;
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const hm::CacheCounters& c = sim.counters(lvl, i);
      total_miss += c.misses;
      max_miss = std::max(max_miss, c.misses);
      evic += c.evictions;
      inval += c.invalidations;
    }
    out.push_back(total_miss);
    out.push_back(max_miss);
    out.push_back(evic);
    out.push_back(inval);
  }
  out.push_back(m.pingpong);
  out.push_back(m.work);
  out.push_back(m.span);
}

inline GoldenRun run_scan(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  auto buf = ex.make_buf<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) buf.raw()[i] = std::int64_t(i % 97);
  const auto m = ex.run(2 * n, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
  GoldenRun g{"scan/" + cfg.name() + "/" + std::to_string(n), {}};
  flatten(ex, m, g.counts);
  return g;
}

inline GoldenRun run_transpose(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  auto a = ex.make_buf<double>(n * n);
  auto out = ex.make_buf<double>(n * n);
  for (std::size_t i = 0; i < n * n; ++i) a.raw()[i] = double(i);
  const auto m =
      ex.run(3 * n * n, [&] { algo::mo_transpose(ex, a.ref(), out.ref(), n); });
  GoldenRun g{"mo-mt/" + cfg.name() + "/" + std::to_string(n), {}};
  flatten(ex, m, g.counts);
  return g;
}

inline GoldenRun run_sort(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  auto buf = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(12345);
  for (auto& v : buf.raw()) v = rng();
  const auto m = ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
  GoldenRun g{"spms/" + cfg.name() + "/" + std::to_string(n), {}};
  flatten(ex, m, g.counts);
  return g;
}

inline GoldenRun run_gep(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  auto buf = ex.make_buf<double>(n * n);
  util::Xoshiro256 rng(999);
  for (auto& v : buf.raw()) v = rng.uniform();
  using Mat = sched::MatView<sched::SimRef<double>>;
  const auto m = ex.run(n * n, [&] {
    algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n));
  });
  GoldenRun g{"igep/" + cfg.name() + "/" + std::to_string(n), {}};
  flatten(ex, m, g.counts);
  return g;
}

/// MO-LR on a random list: the model path's routed pulls.
inline GoldenRun run_listrank(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  util::Xoshiro256 rng(4242);
  auto succ = ex.make_buf<std::uint64_t>(n);
  auto pred = ex.make_buf<std::uint64_t>(n);
  auto dist = ex.make_buf<std::uint64_t>(n);
  algo::link_list(algo::random_list_order(n, rng), succ.raw(), pred.raw());
  const auto m = ex.run(8 * n, [&] {
    algo::mo_list_rank(ex, succ.ref(), pred.ref(), dist.ref());
  });
  GoldenRun g{"listrank/" + cfg.name() + "/" + std::to_string(n), {}};
  flatten(ex, m, g.counts);
  return g;
}

/// The full fixed sweep: every workload on both configs at two sizes, then
/// MO-LR on shared_l2 at one size.
inline std::vector<GoldenRun> run_all() {
  std::vector<GoldenRun> out;
  const hm::MachineConfig cfgs[] = {hm::MachineConfig::shared_l2(4),
                                    hm::MachineConfig::figure1()};
  for (const auto& cfg : cfgs) {
    for (std::uint64_t n : {std::uint64_t(1024), std::uint64_t(4096)}) {
      out.push_back(run_scan(cfg, n));
    }
    for (std::uint64_t n : {std::uint64_t(32), std::uint64_t(64)}) {
      out.push_back(run_transpose(cfg, n));
    }
    for (std::uint64_t n : {std::uint64_t(512), std::uint64_t(2048)}) {
      out.push_back(run_sort(cfg, n));
    }
    for (std::uint64_t n : {std::uint64_t(16), std::uint64_t(32)}) {
      out.push_back(run_gep(cfg, n));
    }
  }
  out.push_back(run_listrank(hm::MachineConfig::shared_l2(4), 1024));
  return out;
}

}  // namespace obliv::golden
