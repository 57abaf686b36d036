// native-batch: the eight families called directly on NativeExecutor, one
// call at a time, first at 1 thread and then at 4.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "families.hpp"
#include "sched/native_executor.hpp"

namespace perfbench {

class NativePhase {
 public:
  /// Set-up: generates every family's input from `seed` and builds the two
  /// executors.
  NativePhase(const Options& opt, Spans& spans);

  /// One closed-loop pass: every family at 1 thread, then at 4.
  void pass(Report& rep);

  /// batch_t1_s: the sum over families of each family's median 1-thread
  /// call over the run's fixed number of passes.  A 1-thread call's noise
  /// is the host's speed, which the median tracks most steadily; summing
  /// per family lets a burst in one family's call spoil only that call.
  void report_end_to_end(Report& rep) const;

  /// Per-layer metrics: batch_t4_s (the sum over families of each
  /// family's fastest 4-thread call), simd kernels, fork/join and steal
  /// counters, per-family timings, and the traced-vs-untraced overhead.
  void report_layers(Report& rep);

 private:
  struct Family {
    Instance inst;
    std::vector<double> t1, t4;  ///< seconds per call, one per pass
  };

  double run_one(Family& f, obliv::sched::NativeExecutor& ex, Report& rep,
                 const char* tag);
  double pass_t4(Report& rep);

  const Options opt_;
  Spans& spans_;
  std::vector<Family> fams_;
  std::unique_ptr<obliv::sched::NativeExecutor> ex1_, ex4_;
};

}  // namespace perfbench
