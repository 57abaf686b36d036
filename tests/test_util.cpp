#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/perf_counters.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace obliv::util {
namespace {

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {16.0, 32.0, 64.0, 128.0}) {
    x.push_back(v);
    y.push_back(3.5 * v * v * v);  // exponent 3
  }
  EXPECT_NEAR(loglog_slope(x, y), 3.0, 1e-9);
}

TEST(Stats, SlopeIgnoresNonPositiveSamples) {
  std::vector<double> x = {1, 2, 0, 4};
  std::vector<double> y = {2, 4, -1, 8};
  EXPECT_NEAR(loglog_slope(x, y), 1.0, 1e-9);
}

TEST(Stats, GeomeanAndSpread) {
  std::vector<double> y = {10, 40}, model = {5, 10};
  // ratios 2 and 4: geomean = sqrt(8), spread = 2.
  EXPECT_NEAR(geomean_ratio(y, model), std::sqrt(8.0), 1e-12);
  EXPECT_NEAR(ratio_spread(y, model), 2.0, 1e-12);
}

TEST(Stats, Summary) {
  std::vector<double> xs = {3, 1, 2};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 3);
  EXPECT_EQ(s.mean, 2);
  EXPECT_EQ(s.count, 3u);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"xxxxx", "1"});
  t.add_row({"y", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a     | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxx | 1           |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
  EXPECT_EQ(Table::fmt(3.14159, "%.2f"), "3.14");
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(1), b(1), c(2);
  EXPECT_EQ(a(), b());
  Xoshiro256 a2(1);
  std::uint64_t first = a2();
  Xoshiro256 c2(2);
  EXPECT_NE(first, c2());
  (void)c;
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(9);
  for (int t = 0; t < 10000; ++t) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(10);
  double lo = 1, hi = 0;
  for (int t = 0; t < 10000; ++t) {
    const double u = rng.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_LT(lo, 0.05);  // covers the interval
  EXPECT_GT(hi, 0.95);
}

TEST(PerfCounters, DegradesGracefully) {
  // Counters may or may not be available in the test environment; either
  // way the API must be safe to use.
  PerfCounterGroup g({PerfEvent::kInstructions});
  g.start();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  g.stop();
  if (g.available()) {
    ASSERT_TRUE(g.value(0).has_value());
    EXPECT_GT(*g.value(0), 0u);  // ran at least some instructions
  } else {
    EXPECT_FALSE(g.value(0).has_value());
    EXPECT_FALSE(g.error().empty());
  }
  EXPECT_FALSE(g.value(99).has_value());  // out of range is safe
}

}  // namespace
}  // namespace obliv::util
