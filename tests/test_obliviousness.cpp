// The paper's central claim, as a property test: a multicore-oblivious
// algorithm contains no machine parameters, yet meets its per-level cache
// bound on EVERY machine.  Each test below runs one unmodified algorithm
// across six HM machines of different depths/shapes and checks (a) the
// output is correct everywhere, and (b) every cache level's measured misses
// are within a generous constant of the theorem's bound (the shared full
// forms of workload/bounds.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "algo/scan.hpp"
#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "workload/bounds.hpp"
#include "workload/workloads.hpp"

namespace obliv {
namespace {

namespace bd = workload::bound;

std::vector<hm::MachineConfig> all_machines() {
  return {hm::MachineConfig::sequential(),
          hm::MachineConfig::shared_l2(2),
          hm::MachineConfig::shared_l2(8),
          hm::MachineConfig::three_level(2, 2),
          hm::MachineConfig::three_level(4, 4),
          hm::MachineConfig::figure1()};
}

class Machines : public ::testing::TestWithParam<int> {
 protected:
  hm::MachineConfig cfg() const { return all_machines()[GetParam()]; }

  /// Runs the registry's `kind` at size n on this machine, checks the
  /// output against its serial reference, and expects every level's max
  /// misses below `factor` times `bound`.
  template <class Bound>
  void expect_correct_and_bounded(workload::Kind kind, std::uint64_t n,
                                  std::uint64_t seed, double factor,
                                  Bound&& bound) const {
    const hm::MachineConfig machine = cfg();
    sched::SimExecutor ex(machine);
    workload::Instance<sched::SimExecutor> inst(ex, kind, n, seed);
    const auto m = inst.run(ex);
    ASSERT_TRUE(inst.check()) << machine.name();
    for (std::uint32_t lvl = 1; lvl <= machine.cache_levels(); ++lvl) {
      EXPECT_LT(double(m.level_max_misses[lvl - 1]),
                factor * bound(machine, lvl, double(n)))
          << machine.name() << " L" << lvl;
    }
  }
};

TEST_P(Machines, TransposeMeetsBoundEverywhere) {
  expect_correct_and_bounded(workload::Kind::kTranspose, 128, 1, 16.0,
                             bd::transpose_misses);
}

TEST_P(Machines, FftMeetsBoundEverywhere) {
  // Generous constant: the check is about the bound's *shape* across
  // machines; implementation constants (3 transposes + scratch per FFT
  // level) are machine-dependent but n-independent (see bench_table2's
  // Theorem 2 rows).
  expect_correct_and_bounded(workload::Kind::kFft, 1 << 12, 2, 160.0,
                             bd::fft_misses);
}

TEST_P(Machines, SortCorrectAndBoundedEverywhere) {
  expect_correct_and_bounded(workload::Kind::kSort, 1 << 13, 3, 160.0,
                             bd::sort_misses);
}

TEST_P(Machines, IgepCorrectAndBoundedEverywhere) {
  expect_correct_and_bounded(workload::Kind::kGep, 64, 4, 32.0,
                             bd::gep_misses);
}

TEST_P(Machines, MoreCoresNeverIncreaseSpan) {
  // Obliviousness in p: the same algorithm's critical path must not grow
  // when the machine gets more cores (shared_l2 sweep handled separately
  // below for like-for-like cache sizes).
  const hm::MachineConfig machine = cfg();
  const std::uint64_t n = 1 << 12;
  sched::SimExecutor ex(machine);
  auto buf = ex.make_buf<std::int64_t>(n);
  for (auto& v : buf.raw()) v = 1;
  const auto m = ex.run(2 * n, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
  EXPECT_LE(m.span, m.work);
  EXPECT_EQ(buf.raw()[n - 1], std::int64_t(n));
}

INSTANTIATE_TEST_SUITE_P(AllMachines, Machines, ::testing::Range(0, 6),
                         [](const auto& p) {
                           return all_machines()[p.param].name() + "_" +
                                  std::to_string(p.param);
                         });

TEST(Obliviousness, SpanShrinksWithCores) {
  // shared_l2(p) machines share L1 geometry; span must fall as p grows.
  std::vector<std::uint64_t> spans;
  for (std::uint32_t p : {1u, 2u, 4u, 8u}) {
    const hm::MachineConfig machine =
        p == 1 ? hm::MachineConfig("p1", {hm::LevelSpec{2048, 8, 1}})
               : hm::MachineConfig::shared_l2(p);
    sched::SimExecutor ex(machine);
    const std::uint64_t n = 1 << 14;
    auto buf = ex.make_buf<double>(n);
    const auto m = ex.run(3 * n, [&] {
      ex.cgc_pfor(0, n, 1, [&](std::uint64_t lo, std::uint64_t hi) {
        auto v = buf.ref();
        for (std::uint64_t k = lo; k < hi; ++k) v.store(k, 1.0);
      });
    });
    spans.push_back(m.span);
  }
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i], spans[i - 1]);
  }
}

}  // namespace
}  // namespace obliv
