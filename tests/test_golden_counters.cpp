// Golden-counter regression test for the HM simulator.
//
// The expected vectors below were captured from the pre-flat-table
// simulator (PR 2 baseline) by running the workloads in
// golden_workloads.hpp; the MO-LR row was recorded later, with the
// routing plans of algo/listrank.hpp.  Per-level misses, evictions,
// invalidations, the ping-pong count, and work/span must stay
// bit-identical: the paper's Table II / Theorem benches are all derived
// from these counts, so any simulator "optimisation" that perturbs them is
// a correctness bug, not a perf win.
//
// Regenerate (only after an intentional semantic change):
//   OBLIV_GOLDEN_REGEN=1 ./obliv_tests --gtest_filter='GoldenCounters.*'
#include <cstdlib>
#include <iostream>

#include <gtest/gtest.h>

#include "golden_workloads.hpp"

namespace obliv::golden {
namespace {

struct Expected {
  const char* name;
  std::vector<std::uint64_t> counts;
};

// clang-format off
const Expected kExpected[] = {
    // <GOLDEN>
    {"scan/shared_l2/1024",
     {256ull, 256ull, 0ull, 0ull, 128ull, 128ull, 0ull, 0ull, 0ull, 8152ull, 8152ull}},
    {"scan/shared_l2/4096",
     {1568ull, 395ull, 538ull, 6ull, 512ull, 512ull, 0ull, 0ull, 6ull, 32722ull, 8237ull}},
    {"mo-mt/shared_l2/32",
     {480ull, 128ull, 0ull, 0ull, 192ull, 192ull, 0ull, 0ull, 0ull, 4096ull, 1024ull}},
    {"mo-mt/shared_l2/64",
     {1971ull, 512ull, 947ull, 0ull, 768ull, 768ull, 0ull, 0ull, 0ull, 16384ull, 4096ull}},
    {"spms/shared_l2/512",
     {514ull, 514ull, 258ull, 0ull, 204ull, 204ull, 0ull, 0ull, 0ull, 21449ull, 21449ull}},
    {"spms/shared_l2/2048",
     {4038ull, 1205ull, 2554ull, 470ull, 934ull, 934ull, 0ull, 0ull, 467ull, 100943ull, 33284ull}},
    {"igep/shared_l2/16",
     {32ull, 32ull, 0ull, 0ull, 16ull, 16ull, 0ull, 0ull, 0ull, 20480ull, 20480ull}},
    {"igep/shared_l2/32",
     {128ull, 128ull, 0ull, 0ull, 64ull, 64ull, 0ull, 0ull, 0ull, 163840ull, 163840ull}},
    {"scan/figure1/1024",
     {540ull, 273ull, 410ull, 2ull, 256ull, 256ull, 0ull, 0ull, 128ull, 128ull, 0ull, 0ull, 128ull, 128ull, 0ull, 0ull, 2ull, 8152ull, 4109ull}},
    {"scan/figure1/4096",
     {2631ull, 661ull, 2369ull, 6ull, 1545ull, 775ull, 521ull, 0ull, 512ull, 512ull, 0ull, 0ull, 512ull, 512ull, 0ull, 0ull, 6ull, 32722ull, 8237ull}},
    {"mo-mt/figure1/32",
     {508ull, 256ull, 380ull, 0ull, 384ull, 384ull, 0ull, 0ull, 192ull, 192ull, 0ull, 0ull, 192ull, 192ull, 0ull, 0ull, 0ull, 4096ull, 2048ull}},
    {"mo-mt/figure1/64",
     {2046ull, 512ull, 1790ull, 0ull, 1900ull, 992ull, 876ull, 0ull, 768ull, 768ull, 0ull, 0ull, 768ull, 768ull, 0ull, 0ull, 0ull, 16384ull, 4096ull}},
    {"spms/figure1/512",
     {1270ull, 671ull, 1042ull, 100ull, 401ull, 401ull, 0ull, 0ull, 204ull, 204ull, 0ull, 0ull, 204ull, 204ull, 0ull, 0ull, 100ull, 21449ull, 11556ull}},
    {"spms/figure1/2048",
     {7679ull, 2218ull, 7132ull, 291ull, 3289ull, 1824ull, 2265ull, 0ull, 934ull, 934ull, 0ull, 0ull, 934ull, 934ull, 0ull, 0ull, 288ull, 100943ull, 33284ull}},
    {"igep/figure1/16",
     {32ull, 32ull, 0ull, 0ull, 32ull, 32ull, 0ull, 0ull, 16ull, 16ull, 0ull, 0ull, 16ull, 16ull, 0ull, 0ull, 0ull, 20480ull, 20480ull}},
    {"igep/figure1/32",
     {452ull, 229ull, 316ull, 8ull, 128ull, 128ull, 0ull, 0ull, 64ull, 64ull, 0ull, 0ull, 64ull, 64ull, 0ull, 0ull, 8ull, 163840ull, 122880ull}},
    {"listrank/shared_l2/1024",
     {102974ull, 27925ull, 83053ull, 18897ull, 23380ull, 23380ull, 15188ull, 0ull, 18709ull, 2315743ull, 703170ull}},
    // </GOLDEN>
};
// clang-format on

TEST(GoldenCounters, BitIdenticalToBaseline) {
  const std::vector<GoldenRun> runs = run_all();
  if (std::getenv("OBLIV_GOLDEN_REGEN") != nullptr) {
    for (const GoldenRun& g : runs) {
      std::cout << "    {\"" << g.name << "\",\n     {";
      for (std::size_t i = 0; i < g.counts.size(); ++i) {
        std::cout << g.counts[i] << (i + 1 < g.counts.size() ? "ull, " : "ull");
      }
      std::cout << "}},\n";
    }
    GTEST_SKIP() << "regeneration mode: printed literals, asserting nothing";
  }
  const std::size_t n_expected = std::size(kExpected);
  ASSERT_EQ(runs.size(), n_expected) << "workload sweep changed shape";
  for (std::size_t i = 0; i < n_expected; ++i) {
    EXPECT_EQ(runs[i].name, kExpected[i].name);
    EXPECT_EQ(runs[i].counts, kExpected[i].counts)
        << "observable simulator metrics changed for " << runs[i].name;
  }
}

// Determinism independent of the golden constants: two fresh executors must
// produce identical flattened metrics.
TEST(GoldenCounters, RunsAreDeterministic) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const GoldenRun a = run_sort(cfg, 512);
  const GoldenRun b = run_sort(cfg, 512);
  EXPECT_EQ(a.counts, b.counts);
}

}  // namespace
}  // namespace obliv::golden
