// Table II bound checks as tier-1 tests.
//
// EXPERIMENTS.md validates the paper's cache/step bounds by fitting log-log
// growth exponents and checking that the measured/bound ratio stays flat
// across an n-sweep.  Those sweeps are bench_table2's rows and are run by
// hand; this file promotes the methodology into fast always-on tests:
// small-n sweeps of the four core Table II workloads (transposition, FFT,
// prefix sum, SPMS sort) on shared_l2(4), and of I-GEP on the small-cache
// machine, asserting the fitted exponent and the ratio spread stay inside
// windows recorded from the seed measurements.  Every bound is the shared
// full form of workload/bounds.hpp.
// The windows are deliberately generous -- they catch a broken scheduler or
// simulator (which shifts exponents by whole factors or blows up the
// spread), not noise (the simulator is deterministic, so any drift at all
// is a real behaviour change).
#include <gtest/gtest.h>

#include <vector>

#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "util/stats.hpp"
#include "workload/bounds.hpp"
#include "workload/workloads.hpp"

namespace obliv {
namespace {

namespace bd = workload::bound;

struct Fit {
  double slope = 0;    ///< fitted log-log exponent of the measured series
  double spread = 0;   ///< max/min of measured/bound across the sweep
};

/// Runs `measure(n)` over `ns`, pairing each measurement with `bound(n)`.
template <class Measure, class Bound>
Fit fit_sweep(const std::vector<std::uint64_t>& ns, Measure&& measure,
              Bound&& bound) {
  std::vector<double> x, y, model;
  for (std::uint64_t n : ns) {
    x.push_back(double(n));
    y.push_back(measure(n));
    model.push_back(bound(n));
  }
  Fit f;
  f.slope = util::loglog_slope(x, y);
  f.spread = util::ratio_spread(y, model);
  return f;
}

const hm::MachineConfig& machine() {
  static const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  return cfg;
}

/// One registry run (workload::Instance under its S(n)) on `cfg`.
sched::RunMetrics run(workload::Kind kind, std::uint64_t n,
                      std::uint64_t seed = 1,
                      const hm::MachineConfig& cfg = machine()) {
  sched::SimExecutor ex(cfg);
  workload::Instance<sched::SimExecutor> inst(ex, kind, n, seed);
  return inst.run(ex);
}

double l1_misses(workload::Kind kind, std::uint64_t n) {
  return double(run(kind, n).level_max_misses[0]);
}

TEST(BoundsTableII, TransposeL1MissesTrackNSquaredOverQB) {
  // Theorem 1: O(n²/(q₁B₁) + B₁) max misses per L1.  Exponent 2 with the
  // small-n droop EXPERIMENTS.md records (2.32 → 2.0 plateau); the ratio
  // plateaus near 7.0 from n = 512 on.  Measured spread 1.86.
  const Fit f = fit_sweep(
      {64, 128, 256, 512},
      [](std::uint64_t n) {
        return l1_misses(workload::Kind::kTranspose, n);
      },
      [](std::uint64_t n) {
        return bd::transpose_misses(machine(), 1, double(n));
      });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.9);
  EXPECT_LE(f.slope, 2.5);
  EXPECT_LE(f.spread, 2.5);
}

TEST(BoundsTableII, TransposeSpanTracksNSquaredOverP) {
  // Theorem 1's step bound n²/p + B₁: span exponent 2.000, ratio within
  // 1.01× recorded; window allows 1.2×.
  const Fit f = fit_sweep(
      {64, 128, 256, 512},
      [](std::uint64_t n) {
        return double(run(workload::Kind::kTranspose, n).span);
      },
      [](std::uint64_t n) {
        return bd::transpose_steps(machine(), double(n));
      });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.95);
  EXPECT_LE(f.slope, 2.05);
  EXPECT_LE(f.spread, 1.2);
}

TEST(BoundsTableII, FftL1MissesTrackNLogCnOverQB) {
  // Theorem 2: O((2n/(q₁B₁)) log_{C₁} n + B₁) misses; EXPERIMENTS.md
  // records slope 1.27 vs model 1.10 with spread 2.3× on the full sweep;
  // measured spread 1.70 at these sizes.
  const Fit f = fit_sweep(
      {1u << 11, 1u << 12, 1u << 13, 1u << 14},
      [](std::uint64_t n) { return l1_misses(workload::Kind::kFft, n); },
      [](std::uint64_t n) { return bd::fft_misses(machine(), 1, double(n)); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.0);
  EXPECT_LE(f.slope, 1.6);
  EXPECT_LE(f.spread, 3.0);
}

TEST(BoundsTableII, ScanL1MissesTrackNOverQB) {
  // Table II row 1: Θ(n/(q₁B₁) + B₁) misses -- a pure scan, so the
  // exponent is 1 and the ratio is essentially constant (spread 1.19).
  // Sizes start at 2^14 so the tree phase's O(log n) additive term is
  // already negligible; the top end is 2^19.  Counters are
  // engine-invariant (tests/test_psim_fuzz.cpp), so the sweep runs on the
  // default engine, which is also the faster one.
  const Fit f = fit_sweep(
      {1u << 14, 1u << 16, 1u << 18, 1u << 19},
      [](std::uint64_t n) { return l1_misses(workload::Kind::kScan, n); },
      [](std::uint64_t n) { return bd::scan_misses(machine(), 1, double(n)); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 0.9);
  EXPECT_LE(f.slope, 1.1);
  EXPECT_LE(f.spread, 1.5);
}

TEST(BoundsTableII, SortL1MissesAndWorkTrackTheorem3) {
  // Theorem 3: O((n/(q₁B₁)) log_{C₁} n + B₁) misses, O(n log n) work;
  // recorded work slope 1.13 (spread 1.14×) and miss spread 1.44×.
  std::vector<double> x, work, work_model;
  const Fit f = fit_sweep(
      {1u << 11, 1u << 12, 1u << 13, 1u << 14},
      [&](std::uint64_t n) {
        const auto m = run(workload::Kind::kSort, n, n);
        x.push_back(double(n));
        work.push_back(double(m.work));
        work_model.push_back(bd::sort_work(double(n)));
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) { return bd::sort_misses(machine(), 1, double(n)); });
  // Seed measurements at these sizes: miss slope 1.39 spread 1.85, work
  // slope 1.31 spread 1.44 (log_{C₁} n advances in integer steps at small
  // n, steepening both fits vs the smooth model).
  SCOPED_TRACE(::testing::Message() << "miss slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.1);
  EXPECT_LE(f.slope, 1.65);
  EXPECT_LE(f.spread, 2.2);

  const double wslope = util::loglog_slope(x, work);
  const double wspread = util::ratio_spread(work, work_model);
  SCOPED_TRACE(::testing::Message() << "work slope=" << wslope
                                    << " spread=" << wspread);
  EXPECT_GE(wslope, 1.05);
  EXPECT_LE(wslope, 1.45);
  EXPECT_LE(wspread, 1.7);
}

TEST(BoundsTableII, IgepL1MissesTrackTheorem5) {
  // Theorem 5: O(n³/(q₁B₁√C₁) + n²/(q₁B₁) + B₁) misses per L1, for
  // Floyd-Warshall on the small-cache machine (so n² ≫ C₁ is reached at
  // simulable n).  Measured 389, 3480, 28464 misses at n = 32, 64, 128:
  // ratio 3.74, 5.37, 6.17 -- the additive n²/(q₁B₁) term is a third of
  // the bound at n = 32 -- so slope 3.10 and spread 1.65.
  const hm::MachineConfig cfg = hm::MachineConfig::small_caches();
  const Fit f = fit_sweep(
      {32, 64, 128},
      [&](std::uint64_t n) {
        return double(run(workload::Kind::kGep, n, 1, cfg).level_max_misses[0]);
      },
      [&](std::uint64_t n) { return bd::gep_misses(cfg, 1, double(n)); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 2.8);
  EXPECT_LE(f.slope, 3.4);
  EXPECT_LE(f.spread, 2.0);
}

}  // namespace
}  // namespace obliv
