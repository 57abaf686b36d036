#include "algo/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"
#include "workload/bounds.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double e = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    e = std::max(e, std::abs(a[i] - b[i]));
  }
  return e;
}

class FftSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FftSizes, MatchesNaiveDftOnSim) {
  const std::uint64_t n = GetParam();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<cplx>(n);
  util::Xoshiro256 rng(n);
  std::vector<cplx> input(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    input[i] = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    buf.raw()[i] = input[i];
  }
  ex.run(3 * n * 2, [&] { mo_fft(ex, buf.ref()); });
  const std::vector<cplx> expect = naive_dft(input);
  EXPECT_LT(max_err(buf.raw(), expect), 1e-9 * n) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2Sweep, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  const std::uint64_t n = 64;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<cplx>(n);
  buf.raw()[0] = cplx(1.0, 0.0);
  ex.run(6 * n, [&] { mo_fft(ex, buf.ref()); });
  for (std::uint64_t f = 0; f < n; ++f) {
    EXPECT_NEAR(buf.raw()[f].real(), 1.0, 1e-10);
    EXPECT_NEAR(buf.raw()[f].imag(), 0.0, 1e-10);
  }
}

TEST(Fft, SingleToneConcentratesEnergy) {
  const std::uint64_t n = 128, tone = 5;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<cplx>(n);
  for (std::uint64_t t = 0; t < n; ++t) {
    buf.raw()[t] = std::polar(1.0, 2.0 * std::numbers::pi * tone * t / n);
  }
  ex.run(6 * n, [&] { mo_fft(ex, buf.ref()); });
  // Convention Y[f] = sum_t x[t] e^{-2 pi i f t / n}: the tone lands at f=5.
  EXPECT_NEAR(std::abs(buf.raw()[tone]), double(n), 1e-8);
  for (std::uint64_t f = 0; f < n; ++f) {
    if (f == tone) continue;
    EXPECT_LT(std::abs(buf.raw()[f]), 1e-8) << "f=" << f;
  }
}

TEST(Fft, InverseRoundTrips) {
  const std::uint64_t n = 256;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<cplx>(n);
  util::Xoshiro256 rng(17);
  std::vector<cplx> input(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    input[i] = cplx(rng.uniform(), rng.uniform());
    buf.raw()[i] = input[i];
  }
  ex.run(6 * n, [&] {
    mo_fft(ex, buf.ref());
    mo_ifft(ex, buf.ref());
  });
  EXPECT_LT(max_err(buf.raw(), input), 1e-10 * n);
}

TEST(Fft, ParsevalHolds) {
  const std::uint64_t n = 512;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto buf = ex.make_buf<cplx>(n);
  util::Xoshiro256 rng(23);
  double time_energy = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    buf.raw()[i] = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    time_energy += std::norm(buf.raw()[i]);
  }
  ex.run(6 * n, [&] { mo_fft(ex, buf.ref()); });
  double freq_energy = 0;
  for (auto& v : buf.raw()) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-6 * n);
}

TEST(Fft, SharedTwiddlesMatchPolarBitwise) {
  // MO-FFT reads w_m^j from one table of w_M^k; every (j, m) it can ask
  // for must give the bits the direct expression gives, through the table
  // (m <= M) and past it (m > M).
  for (std::uint64_t m = 1; m <= 4 * detail::kTwiddleTableSize; m *= 2) {
    for (std::uint64_t j = 0; j < m; ++j) {
      const cplx want = std::polar(
          1.0, -2.0 * std::numbers::pi * static_cast<double>(j) /
                   static_cast<double>(m));
      const cplx got = detail::twiddle(j, m);
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(cplx)), 0)
          << "j = " << j << ", m = " << m;
    }
  }
}

TEST(Fft, IterativeBaselineMatchesMoFft) {
  const std::uint64_t n = 256;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto b1 = ex.make_buf<cplx>(n);
  auto b2 = ex.make_buf<cplx>(n);
  util::Xoshiro256 rng(31);
  for (std::uint64_t i = 0; i < n; ++i) {
    b1.raw()[i] = cplx(rng.uniform(), rng.uniform());
    b2.raw()[i] = b1.raw()[i];
  }
  ex.run(6 * n, [&] { mo_fft(ex, b1.ref()); });
  ex.run(6 * n, [&] { iterative_fft(ex, b2.ref()); });
  EXPECT_LT(max_err(b1.raw(), b2.raw()), 1e-9 * n);
}

TEST(Fft, NativeExecutorCorrect) {
  const std::uint64_t n = 1 << 12;
  sched::NativeExecutor ex(4);
  auto buf = ex.make_buf<cplx>(n);
  util::Xoshiro256 rng(41);
  std::vector<cplx> input(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    input[i] = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    buf.raw()[i] = input[i];
  }
  mo_fft(ex, buf.ref());
  mo_ifft(ex, buf.ref());
  EXPECT_LT(max_err(buf.raw(), input), 1e-9 * n);
}

TEST(Fft, MissesGrowAsNLogCN) {
  // Theorem 2: O((2n / (q_i B_i)) log_{C_i} n + B_i) misses per level-i
  // cache.
  // For n well above C_1, L1 misses per element should exceed one scan's
  // worth but stay within a multiple of (n/B) log_C n.
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  SimExecutor ex(cfg);
  const std::uint64_t n = 1 << 14;
  auto buf = ex.make_buf<cplx>(n);
  for (auto& v : buf.raw()) v = cplx(1.0, 0.0);
  auto m = ex.run(6 * n, [&] { mo_fft(ex, buf.ref()); });
  const double model = workload::bound::fft_misses(cfg, 1, double(n));
  EXPECT_LT(double(m.level_max_misses[0]), 40.0 * model);
  EXPECT_GT(double(m.level_max_misses[0]), 0.1 * model);
}

}  // namespace
}  // namespace obliv::algo
