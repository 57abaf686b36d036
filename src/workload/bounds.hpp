// Table II's bounds, each written once: the paper's closed forms for the
// MO algorithms on an HM machine (level-i misses, parallel steps, work)
// and for the NO algorithms on M(p, B) (communication, computation, after
// Bilardi et al.).  Every form is the theorem's leading term plus the
// additive terms the theorem states, with no fitted constants, and counts
// words: a complex element is 2 words.  bench_table2 prints the measured
// counters against these, and the BoundsTableII and Machines tests gate
// the same forms.
//
// `n` is the element count (scan, fft, sort, listrank), the matrix side
// (transpose, gep, matmul) or the row count (spmdv); logs are base 2
// unless named otherwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "hm/config.hpp"

namespace obliv::workload::bound {

/// words / (q_i B_i): one pass over `words` words, split over the q_i
/// level-i caches.
inline double pass(const hm::MachineConfig& cfg, std::uint32_t lvl,
                   double words) {
  return words / (double(cfg.caches_at(lvl)) * double(cfg.block(lvl)));
}

/// max(1, log_{C_i} n): the recursion depth until a subproblem fits C_i.
inline double log_c(const hm::MachineConfig& cfg, std::uint32_t lvl,
                    double n) {
  return std::max(1.0, std::log(n) / std::log(double(cfg.capacity(lvl))));
}

inline double block(const hm::MachineConfig& cfg, std::uint32_t lvl) {
  return double(cfg.block(lvl));
}

// ---- MO algorithms on HM ---------------------------------------------------

/// Prefix sums (Table II row 1, Section III-A): n/(q_i B_i) + B_i misses.
inline double scan_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                          double n) {
  return pass(cfg, lvl, n) + block(cfg, lvl);
}
/// Prefix sums: n/p + B_1 log n parallel steps (the span term is the
/// CGC tree's O(B_1 log n)).
inline double scan_steps(const hm::MachineConfig& cfg, double n) {
  return n / cfg.cores() + block(cfg, 1) * std::log2(n);
}

/// Theorem 1 (MO-MT): n^2/(q_i B_i) + B_i misses.
inline double transpose_misses(const hm::MachineConfig& cfg,
                               std::uint32_t lvl, double n) {
  return pass(cfg, lvl, n * n) + block(cfg, lvl);
}
/// Theorem 1: n^2/p + B_1 parallel steps.
inline double transpose_steps(const hm::MachineConfig& cfg, double n) {
  return n * n / cfg.cores() + block(cfg, 1);
}

/// Theorem 2 (MO-FFT): (2n/(q_i B_i)) log_{C_i} n + B_i misses.
inline double fft_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                         double n) {
  return pass(cfg, lvl, 2 * n) * log_c(cfg, lvl, n) + block(cfg, lvl);
}
/// Theorem 2: (n/p + B_1) log n parallel steps.
inline double fft_steps(const hm::MachineConfig& cfg, double n) {
  return (n / cfg.cores() + block(cfg, 1)) * std::log2(n);
}

/// Theorem 3 (SPMS): (n/(q_i B_i)) log_{C_i} n + B_i misses.
inline double sort_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                          double n) {
  return pass(cfg, lvl, n) * log_c(cfg, lvl, n) + block(cfg, lvl);
}
/// Theorem 3: n log n work.
inline double sort_work(double n) { return n * std::log2(n); }
/// Theorem 3: (n/p) log n parallel steps.
inline double sort_steps(const hm::MachineConfig& cfg, double n) {
  return sort_work(n) / cfg.cores();
}

/// Theorem 4 (MO-SpM-DV): (n/q_i)(1/B_i + 1/C_i^(1-eps)) misses for a
/// matrix with an n^eps-edge separator, reordered by its separator tree.
inline double spmdv_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                           double n, double eps) {
  return n / cfg.caches_at(lvl) *
         (1.0 / block(cfg, lvl) +
          1.0 / std::pow(double(cfg.capacity(lvl)), 1.0 - eps));
}

/// Theorem 5 (I-GEP, and matmul as its function D):
/// n^3/(q_i B_i sqrt(C_i)) + n^2/(q_i B_i) + B_i misses.
inline double gep_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                         double n) {
  return pass(cfg, lvl, n * n * n) / std::sqrt(double(cfg.capacity(lvl))) +
         pass(cfg, lvl, n * n) + block(cfg, lvl);
}
/// Theorem 5: n^3/p parallel steps.
inline double gep_steps(const hm::MachineConfig& cfg, double n) {
  return n * n * n / cfg.cores();
}

// Theorem 7 (MO-LR) is sort-dominated, a sort per contraction level: its
// work, miss and step bounds are Theorem 3's.

/// Theorem 8 (MO-CC), N = n + m: N log N log(N/B_1) work (a sort per
/// hooking round, log(N/B_1) contraction rounds).
inline double cc_work(const hm::MachineConfig& cfg, double N) {
  return N * std::log2(N) * std::log2(N / block(cfg, 1));
}
/// Theorem 8: a sort per round, (N/(q_i B_i)) log_{C_i} N log(N/B_1)
/// misses.
inline double cc_misses(const hm::MachineConfig& cfg, std::uint32_t lvl,
                        double N) {
  return pass(cfg, lvl, N) * log_c(cfg, lvl, N) * std::log2(N / block(cfg, 1));
}

// ---- NO algorithms on M(p, B) ---------------------------------------------

/// NO prefix sums and columnsort: n/(pB), one pass over the data.
inline double no_pass_comm(double n, double p, double B) {
  return n / (p * B);
}

/// NO transposition: n^2/(pB).
inline double no_transpose_comm(double n, double p, double B) {
  return n * n / (p * B);
}

/// NO FFT: (2n/(pB)) log n / log(n/p).
inline double no_fft_comm(double n, double p, double B) {
  return 2 * n / (p * B) * std::log(n) / std::log(n / p);
}

/// Theorem 6 (N-GEP): n^2/(sqrt(p) B) + n log^2 n communication.
inline double no_gep_comm(double n, double p, double B) {
  const double lg = std::log2(n);
  return n * n / (std::sqrt(p) * B) + n * lg * lg;
}
/// Theorem 6: n^3/p computation.
inline double no_gep_comp(double n, double p) { return n * n * n / p; }

/// Theorem 9 (NO-LR): (n/(pB)) log n communication.
inline double no_listrank_comm(double n, double p, double B) {
  return n / (p * B) * std::log2(n);
}
/// Theorem 9: (n/p) log n computation.
inline double no_listrank_comp(double n, double p) {
  return n / p * std::log2(n);
}

/// Theorem 10 (NO-CC), N~ = n + m log n: (N~/(pB)) log n communication.
inline double no_cc_comm(double n, double m, double p, double B) {
  return (n + m * std::log2(n)) / (p * B) * std::log2(n);
}
/// Theorem 10: (N~/p) log n computation.
inline double no_cc_comp(double n, double m, double p) {
  return (n + m * std::log2(n)) / p * std::log2(n);
}

}  // namespace obliv::workload::bound
