// The model phase (model-table2): the bench_table2 problem set -- the MO
// side on SimExecutor + hm::CacheSim under the default replay engine, the
// NO side on no::NoMachine.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "hm/trace.hpp"

namespace obliv::obs {
class Tracer;
}

namespace perfbench {

class ModelPhase {
 public:
  static constexpr std::size_t kProblems = 7;

  /// Set-up: the problems' inputs from `seed`.
  ModelPhase(const Options& opt, Spans& spans);

  /// Regenerates Table II once with the serial engine: the oracle every
  /// default-engine regeneration's counters must match exactly.
  void serial_reference();

  /// One regeneration with the default engine, checked against the oracle.
  void regen_default(Report& rep);

  /// table2_s: the sum over problems of each problem's median
  /// regeneration time (MO and NO side).
  void report_end_to_end(Report& rep) const;

  /// hm.*, sim.* and no.* per-layer metrics, plus tracing overhead.
  void report_layers(Report& rep);

 private:
  /// Exact counters of one problem (MO side and NO side).
  struct Counts {
    std::uint64_t work = 0, span = 0, accesses = 0, l1 = 0, l2 = 0, comm = 0;
    bool operator==(const Counts&) const = default;
  };
  struct Regen {
    std::array<Counts, kProblems> counts{};
    std::array<double, kProblems> stack_ms{};  ///< SimExecutor run, wall
    std::array<double, kProblems> no_ms{};     ///< NoMachine run, wall
    double total_s = 0;
  };

  /// One regeneration.  With `capture` set, only problem `only` runs and
  /// its access trace is recorded into `capture` (traces are captured one
  /// problem at a time: all seven together take close to a GiB).
  Regen regen(obliv::hm::PsimMode mode, obliv::obs::Tracer* tracer,
              std::size_t only = kProblems,
              std::vector<obliv::hm::TraceEntry>* capture = nullptr);
  void check_counts(Report& rep, const Regen& r, const char* tag) const;

  const Options opt_;
  Spans& spans_;
  // Seeded inputs (the rest of the problem set is all-ones, as in
  // bench_table2).
  std::vector<double> gep_in_;
  std::vector<std::uint64_t> sort_in_;
  std::vector<std::int64_t> colsort_in_;
  std::vector<std::uint64_t> list_perm_;

  std::vector<Regen> runs_;
  Regen serial_;
};

}  // namespace perfbench
