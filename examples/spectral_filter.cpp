// Example: spectral denoising with MO-FFT.
//
// A noisy three-tone signal is transformed with the multicore-oblivious FFT
// (Figure 3), small spectral coefficients are zeroed, and the inverse FFT
// reconstructs the signal.  The same code runs on the HM simulator (to show
// Theorem 2's cache behaviour on this workload) and on real threads.
//
// Build & run:  ./build/examples/example_spectral_filter
#include <cmath>
#include <complex>
#include <iostream>
#include <numbers>
#include <vector>

#include "algo/fft.hpp"
#include "hm/config.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

std::vector<algo::cplx> make_signal(std::size_t n, util::Xoshiro256& rng) {
  std::vector<algo::cplx> x(n);
  const double tones[3] = {50.0, 120.0, 333.0};
  for (std::size_t t = 0; t < n; ++t) {
    double v = 0;
    for (double f : tones) {
      v += std::sin(2.0 * std::numbers::pi * f * double(t) / double(n));
    }
    v += 1.5 * (rng.uniform() - 0.5);  // broadband noise
    x[t] = algo::cplx(v, 0.0);
  }
  return x;
}

double energy(const std::vector<algo::cplx>& x) {
  double e = 0;
  for (const auto& v : x) e += std::norm(v);
  return e;
}

template <class Exec, class Ref>
void denoise(Exec& ex, Ref sig) {
  const std::size_t n = sig.size();
  algo::mo_fft(ex, sig);
  // Keep only coefficients above the noise floor; CGC pass.
  const double threshold = 0.25 * double(n);
  sched::cgc_pfor_each(ex, 0, n, 2, [&](std::uint64_t f) {
    if (std::abs(sig.load(f)) < threshold) {
      sig.store(f, algo::cplx(0.0, 0.0));
    }
  });
  algo::mo_ifft(ex, sig);
}

}  // namespace

int main() {
  const std::size_t n = 1 << 14;
  util::Xoshiro256 rng(7);
  const std::vector<algo::cplx> noisy = make_signal(n, rng);

  // Clean reference (no noise) for SNR computation.
  util::Xoshiro256 zero_rng(7);
  std::vector<algo::cplx> clean(n);
  {
    const double tones[3] = {50.0, 120.0, 333.0};
    for (std::size_t t = 0; t < n; ++t) {
      double v = 0;
      for (double f : tones) {
        v += std::sin(2.0 * std::numbers::pi * f * double(t) / double(n));
      }
      clean[t] = algo::cplx(v, 0.0);
    }
  }
  auto snr_db = [&](const std::vector<algo::cplx>& x) {
    double sig = 0, err = 0;
    for (std::size_t t = 0; t < n; ++t) {
      sig += std::norm(clean[t]);
      err += std::norm(x[t] - clean[t]);
    }
    return 10.0 * std::log10(sig / err);
  };

  std::cout << "Spectral filter on " << n << " samples\n";
  std::cout << "input SNR:    " << snr_db(noisy) << " dB\n";

  // --- HM simulator run: correctness + cache metrics. ---
  const hm::MachineConfig machine = hm::MachineConfig::shared_l2(4);
  sched::SimExecutor sim(machine);
  auto buf = sim.make_buf<algo::cplx>(n);
  buf.raw() = noisy;
  const auto m = sim.run(6 * n, [&] { denoise(sim, buf.ref()); });
  std::cout << "filtered SNR: " << snr_db(buf.raw()) << " dB\n";
  std::cout << "HM metrics (" << machine.describe() << "):\n";
  std::cout << "  work " << m.work << ", span " << m.span << ", L1 misses "
            << m.level_max_misses[0] << ", L2 misses "
            << m.level_max_misses[1] << "\n";
  std::cout << "  signal energy preserved: "
            << energy(buf.raw()) / energy(noisy) << "\n";

  // --- Native run (same template, real threads). ---
  sched::NativeExecutor nat(4);
  auto nbuf = nat.make_buf<algo::cplx>(n);
  nbuf.raw() = noisy;
  denoise(nat, nbuf.ref());
  std::cout << "native filtered SNR (" << nat.threads()
            << " threads): " << snr_db(nbuf.raw()) << " dB\n";
  return 0;
}
