// serve-mix: an open loop of heavy-tailed jobs from all seven request
// families into serve::Server, then a closed loop that measures capacity.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "families.hpp"
#include "serve/serve.hpp"

namespace perfbench {

class ServePhase {
 public:
  struct Job;

  /// Set-up: generates the job set and its arrival schedule from `seed` and
  /// starts a server with nproc-1 workers.
  ServePhase(const Options& opt, Spans& spans);
  ~ServePhase();

  /// A short closed-loop burst so pool threads and allocators are warm.
  void warmup(Report& rep);

  /// One round: the job set twice in a closed loop to measure capacity,
  /// then the open-loop schedule -- a light phase at 10% of that capacity
  /// and a heavy one at 30%.
  void round(Report& rep);

  /// lat_p50_ms, lat_p99_ms and capacity_jps (medians of the rounds'
  /// figures); serve.* and gen.* from one traced round; and the
  /// traced-vs-untraced overhead on the closed loop.
  void report_layers(Report& rep);

 private:
  struct RoundStats {
    std::vector<double> lat_ms;       ///< due -> completion, +inf if failed
    std::vector<double> late_ms;      ///< due -> submit
    std::vector<double> submit_us;    ///< time inside Server::submit
    std::vector<double> idle_lat_ms;  ///< submitted with nothing outstanding
    std::vector<double> busy_lat_ms;  ///< submitted behind outstanding jobs
  };

  void reset_jobs();
  /// Checks every job's output, then resets the job set.
  void check_jobs(Report& rep, const char* tag);
  RoundStats open_loop(obliv::serve::Server& srv, Report& rep,
                       double capacity_jps, bool job_spans);
  /// Seconds to serve the job set with a fixed window outstanding.
  double closed_loop(obliv::serve::Server& srv, Report& rep);
  double served_alone_vs_direct(Report& rep);

  const Options opt_;
  Spans& spans_;
  unsigned workers_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<double> gaps_;  ///< unit-rate exponential inter-arrival gaps
  std::size_t light_jobs_ = 0;
  std::unique_ptr<obliv::serve::Server> srv_;
  std::vector<double> p50_ms_, p99_ms_, capacity_;  ///< one per round
};

}  // namespace perfbench
