// Shared helpers for the per-table/figure benchmark binaries.
//
// Each bench prints, for a parameter sweep, the measured quantity next to
// the paper's closed-form bound and their ratio; a bound "holds in shape"
// when the ratio column is flat (constant factor) across the sweep.  The
// fitted log-log slope is printed so EXPERIMENTS.md can record measured vs
// predicted growth exponents.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hm/config.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace obliv::bench {

inline void print_header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

/// True when the binary was invoked with --smoke.  Under --smoke a bench
/// shrinks its sweeps to the smallest sizes that still exercise every code
/// path and prints the same tables; bench/CMakeLists.txt registers every
/// bench as a `ctest` entry with this flag, so bench bitrot is caught on
/// every ctest invocation instead of the next manual bench run.
inline bool smoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// A sweep that keeps only its first `keep` points under --smoke (two
/// points still exercise the sweep loop and give loglog_slope something to
/// fit, while skipping the large sizes that dominate a bench's runtime).
template <class T>
std::vector<T> sweep(bool smoke_mode, std::initializer_list<T> full,
                     std::size_t keep = 2) {
  std::vector<T> v(full);
  if (smoke_mode && v.size() > keep) v.resize(keep);
  return v;
}

inline void print_machine(const hm::MachineConfig& cfg) {
  std::cout << "machine: " << cfg.describe() << "\n";
}

// ---------------------------------------------------------------------------
// Unified trace export: every bench honors `--trace-out=<path>` (or the
// OBLIV_TRACE_OUT environment variable) with one spelling.  Construct one
// TraceExport at the top of main(); executor/machine construction sites
// then call bench::trace_attach(obj).  When tracing was not requested the
// tracer is null and trace_attach degrades to set_tracer(nullptr).  The
// Chrome trace is written when the TraceExport leaves scope; rings that
// overwrote events are surfaced by the exporter's stderr drop warning and
// recorded in the trace's otherData (obliv-trace refuses such a trace for
// span analysis but chrome://tracing renders it fine).
// ---------------------------------------------------------------------------
class TraceExport {
 public:
  /// `rings` must be >= the worker count of any native pool the trace is
  /// attached to (rings are single-producer); sim/NO benches use 1.
  TraceExport(int argc, char** argv, std::uint32_t rings = 1,
              std::size_t capacity = obs::TraceRing::kDefaultCapacity)
      : path_(obs::resolve_trace_out(argc, argv)) {
    if (!path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>(rings, capacity);
    }
    active_ = this;
  }
  ~TraceExport() {
    if (tracer_ != nullptr && obs::write_chrome_trace(path_, *tracer_)) {
      std::cout << "trace: wrote " << path_ << " ("
                << tracer_->events_pushed() << " events, "
                << tracer_->events_dropped() << " dropped)\n";
    }
    if (active_ == this) active_ = nullptr;
  }
  TraceExport(const TraceExport&) = delete;
  TraceExport& operator=(const TraceExport&) = delete;

  obs::Tracer* tracer() const { return tracer_.get(); }

  /// The innermost live TraceExport, for helpers that do not see argv.
  static obs::Tracer* active_tracer() {
    return active_ != nullptr ? active_->tracer() : nullptr;
  }

 private:
  static inline TraceExport* active_ = nullptr;
  std::string path_;
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Attaches the active trace export (if any) to a freshly constructed
/// executor / machine; returns it for chaining.
template <class T>
T& trace_attach(T& target) {
  target.set_tracer(TraceExport::active_tracer());
  return target;
}

/// One sweep series: x (problem size), measured, and the model prediction.
struct Series {
  Series() = default;
  explicit Series(std::string n) : name(std::move(n)) {}

  std::string name;
  std::vector<double> x, measured, model;

  void add(double xi, double meas, double mod) {
    x.push_back(xi);
    measured.push_back(meas);
    model.push_back(mod);
  }
};

/// Prints x / measured / model / ratio rows plus slope + flatness summary.
inline void print_series(const Series& s,
                         const std::string& xlabel = "n") {
  util::Table t({xlabel, "measured", "model", "ratio"});
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    t.add_row({util::Table::fmt(s.x[i], "%.0f"),
               util::Table::fmt(s.measured[i], "%.4g"),
               util::Table::fmt(s.model[i], "%.4g"),
               util::Table::fmt(s.measured[i] / s.model[i], "%.3f")});
  }
  std::cout << "\n-- " << s.name << " --\n";
  t.print(std::cout);
  const double slope_meas = util::loglog_slope(s.x, s.measured);
  const double slope_model = util::loglog_slope(s.x, s.model);
  std::cout << "loglog slope: measured " << util::Table::fmt(slope_meas, "%.3f")
            << " vs model " << util::Table::fmt(slope_model, "%.3f")
            << "; ratio spread "
            << util::Table::fmt(util::ratio_spread(s.measured, s.model),
                                "%.2f")
            << "x (flat ratio => bound shape holds)\n";
}

// ---------------------------------------------------------------------------
// Wall-clock timing + machine-readable output (BENCH_*.json)
// ---------------------------------------------------------------------------

/// Git revision baked in by bench/CMakeLists.txt at configure time.
inline const char* git_rev() {
#ifdef OBLIV_GIT_REV
  return OBLIV_GIT_REV;
#else
  return "unknown";
#endif
}

/// Host hardware concurrency as seen by the process (0 is normalized to 1,
/// matching how the sharded replay engine treats an unknown core count).
/// Recorded in every BENCH_*.json so parallel-replay numbers from hosts
/// with different core counts are never compared as like-for-like.
inline unsigned host_concurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// True when this bench run pins its threads: OBLIV_PIN is set (see
/// sched::pinning_requested) and the platform affinity call works.  The
/// first call pins the calling (main/worker-0) thread to core 0 -- the pool
/// workers pin themselves on spawn -- so measurement runs under OBLIV_PIN=1
/// are fully pinned.  Recorded alongside hardware_concurrency so pinned and
/// unpinned rows are never compared as like-for-like in the JSON history.
inline bool threads_pinned() {
  static const bool pinned =
      sched::pinning_requested() && sched::pin_current_thread(0);
  return pinned;
}

/// Opens `{` and writes the environment fields every BENCH_*.json carries
/// (git_rev, hardware_concurrency, pinned) -- one spelling shared by every
/// recorder so the fields can never drift apart across benches.  The
/// caller continues with its own keys and closes the object.
inline void write_json_env_header(std::ostream& out) {
  out << "{\n  \"git_rev\": \"" << git_rev() << "\",\n";
  out << "  \"hardware_concurrency\": " << host_concurrency() << ",\n";
  out << "  \"pinned\": " << (threads_pinned() ? "true" : "false") << ",\n";
}

/// One timed execution of `fn`, in nanoseconds.
inline double time_once_ns(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Runs `fn` once untimed (warm-up), then `reps` timed repetitions, and
/// returns the median wall-clock nanoseconds of one repetition.  Median of
/// K is robust to the occasional scheduler hiccup a mean would smear in.
inline double median_ns(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ns;
  ns.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Collects one record per (workload, scheduler, threads, n) measurement and
/// writes them as a JSON document, so the perf trajectory is trackable
/// across PRs (compare BENCH_wallclock.json between checkouts).
class JsonRecorder {
 public:
  struct Record {
    std::string bench;
    std::string sched;
    unsigned threads = 1;
    std::uint64_t n = 0;
    double ns_per_op = 0;
    int reps = 0;
  };

  explicit JsonRecorder(std::string path) : path_(std::move(path)) {}

  void add(const std::string& bench_name, const std::string& sched,
           unsigned threads, std::uint64_t n, double ns_per_op, int reps) {
    records_.push_back(Record{bench_name, sched, threads, n, ns_per_op, reps});
  }

  /// Writes the collected records; returns false (and warns) on I/O error.
  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write " << path_ << "\n";
      return false;
    }
    write_json_env_header(out);
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"bench\": \"" << r.bench << "\", \"sched\": \"" << r.sched
          << "\", \"threads\": " << r.threads << ", \"n\": " << r.n
          // three decimals: the simd:* kernel rows are per-element and
          // sub-nanosecond, where one decimal would quantize the ratios.
          << ", \"ns_per_op\": " << util::Table::fmt(r.ns_per_op, "%.3f")
          << ", \"reps\": " << r.reps << "}"
          << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path_ << " (" << records_.size()
              << " records, git_rev=" << git_rev() << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::vector<Record> records_;
};

/// Recorder for the simulator-throughput bench (BENCH_simrate.json).
/// One record per (workload, machine config, n): the number of simulated
/// word accesses per repetition and the best-of-K rate of the replay
/// engine that produced the row, so the simulator's speed is trackable
/// across PRs.
class SimRateRecorder {
 public:
  struct Record {
    std::string bench;
    std::string config;
    std::uint64_t n = 0;
    std::uint64_t accesses = 0;    ///< simulated word accesses per rep
    double acc_per_sec = 0;        ///< best-of-K
    int reps = 0;
    unsigned threads = 1;          ///< replay engine workers (1 = serial)
  };

  explicit SimRateRecorder(std::string path) : path_(std::move(path)) {}

  void add(const std::string& bench_name, const std::string& config,
           std::uint64_t n, std::uint64_t accesses, double acc_per_sec,
           int reps, unsigned threads = 1) {
    records_.push_back(
        Record{bench_name, config, n, accesses, acc_per_sec, reps, threads});
  }

  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write " << path_ << "\n";
      return false;
    }
    write_json_env_header(out);
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"bench\": \"" << r.bench << "\", \"config\": \""
          << r.config << "\", \"n\": " << r.n
          << ", \"accesses\": " << r.accesses << ", \"acc_per_sec\": "
          << util::Table::fmt(r.acc_per_sec, "%.4g")
          << ", \"reps\": " << r.reps << ", \"threads\": " << r.threads
          << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path_ << " (" << records_.size()
              << " records, git_rev=" << git_rev() << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Paired-overhead guardrail: "is the `on` path free compared with `off`?"
//
// Statistics for a drifting shared host: per repetition the off / off / on
// cells run back-to-back, in alternating order, and the *ratio* within
// each repetition is what gets aggregated -- paired runs sit in the same
// interference window, so host drift divides out of the ratio even when
// absolute ns swing by 2x across the run.  Both ratios (on/off and the A/A
// off/off) are taken against the shared middle cell, which is adjacent to
// the other two in either order, so both span the same time distance and
// the same drift exposure; comparing against the min of the two off runs
// instead would bias the denominator low and read pure noise as
// +overhead.  The reported overhead is the median ratio across reps; the
// A/A median is the residual pairing-noise floor.  The gate (full mode
// only) is overhead <= max(floor, A/A + 1%), and a failing measurement is
// repeated once before it fails: host load oscillating in resonance with
// the repetition cadence can push one measurement past the budget, while a
// real regression reproduces.
// ---------------------------------------------------------------------------

/// One timed repetition of a guardrail cell, in ns.  timed() wraps a plain
/// run; a cell that switches state (attaches a tracer, installs a fault
/// plan) does so around its own time_once_ns() call, which keeps the
/// switch outside the timed region.
using TimedRun = std::function<double()>;

inline TimedRun timed(std::function<void()> fn) {
  return [fn = std::move(fn)] { return time_once_ns(fn); };
}

struct Overhead {
  double off_ns = 0;        ///< best-of-reps off cell
  double on_ns = 0;         ///< best-of-reps on cell
  double noise_pct = 0;     ///< |median(off/off) - 1|, the A/A noise floor
  double over_pct = 0;      ///< median(on/off) - 1
  bool ok = true;           ///< within budget (always, when not gated)
  bool remeasured = false;  ///< the first measurement failed the gate
};

/// The gate: overhead <= max(floor_pct, A/A noise + 1%), applied only when
/// `gated` (full mode); --smoke and report-only runs measure and print.
struct Budget {
  double floor_pct = 0;
  bool gated = true;

  bool within(const Overhead& m) const {
    return !gated || m.over_pct <= std::max(floor_pct, m.noise_pct + 1.0);
  }
};

/// One paired measurement: a warm-up of each cell, then `reps` off/off/on
/// repetitions (see the statistics above).
inline Overhead measure_paired(const TimedRun& off, const TimedRun& on,
                               int reps) {
  off();
  on();
  std::vector<double> over_ratios, noise_ratios;
  Overhead m;
  for (int r = 0; r < reps; ++r) {
    double a, a2, b;
    // Alternate the within-rep order: a fixed order hands the same cell
    // the tail of every load burst and biases the comparison.
    if (r % 2 == 0) {
      a = off();
      a2 = off();
      b = on();
    } else {
      b = on();
      a2 = off();
      a = off();
    }
    over_ratios.push_back(b / a2);
    noise_ratios.push_back(a / a2);
    const double best_off = std::min(a, a2);
    if (r == 0 || best_off < m.off_ns) m.off_ns = best_off;
    if (r == 0 || b < m.on_ns) m.on_ns = b;
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  m.noise_pct = 100.0 * std::abs(median(noise_ratios) - 1.0);
  m.over_pct = 100.0 * (median(over_ratios) - 1.0);
  return m;
}

/// Measures the overhead of `on` over `off` and applies `budget`, with one
/// confirming re-measure before a failure stands.
inline Overhead paired_overhead(const TimedRun& off, const TimedRun& on,
                                int reps, const Budget& budget) {
  Overhead m = measure_paired(off, on, reps);
  if (budget.within(m)) return m;
  m = measure_paired(off, on, reps);
  m.ok = budget.within(m);
  m.remeasured = true;
  return m;
}

/// Samples recorded across every histogram of `tracer`.
inline std::uint64_t histogram_samples(const obs::Tracer& tracer) {
  std::uint64_t n = 0;
  tracer.counters().for_each_histogram(
      [&](const std::string&, const obs::Histogram& h) { n += h.count(); });
  return n;
}

/// One guardrail run: prints its header and gate, adds one table row per
/// check(), and ends with an OK / FAIL verdict and exit code.
class Guardrail {
 public:
  /// Table headings: the row label, then the off and the on cell.
  struct Labels {
    std::string row, off, on;
  };

  Guardrail(const std::string& title, Labels labels, int reps, Budget budget)
      : reps_(reps),
        budget_(budget),
        table_({labels.row, labels.off, "A/A noise", labels.on, "overhead"}) {
    print_header(title);
    if (budget_.gated) {
      std::printf("gate on (<= max(%g%%, A/A noise + 1%%)), %d reps\n",
                  budget_.floor_pct, reps_);
    } else {
      std::printf("gate off (measure only), %d reps\n", reps_);
    }
  }

  Overhead check(const std::string& row, const TimedRun& off,
                 const TimedRun& on) {
    const Overhead m = paired_overhead(off, on, reps_, budget_);
    gate_ok_ = gate_ok_ && m.ok;
    const char* mark = !m.ok         ? "  <-- FAIL"
                       : m.remeasured ? "  (re-measured)"
                                      : "";
    table_.add_row({row + mark,
                    util::Table::fmt(m.off_ns, "%.0f"),
                    util::Table::fmt(m.noise_pct, "%.2f%%"),
                    util::Table::fmt(m.on_ns, "%.0f"),
                    util::Table::fmt(m.over_pct, "%+.2f%%")});
    return m;
  }

  /// Non-vacuousness hook: a false `armed` fails the run with `why`,
  /// however green the gate -- for an on cell that never exercised the
  /// code it claims to measure.
  void require(bool armed, const std::string& why) {
    if (!armed) unarmed_.push_back(why);
  }

  void print() const { table_.print(std::cout); }

  /// Prints the table and the verdict; returns the process exit code.
  int finish(const std::string& ok_msg, const std::string& fail_msg) const {
    print();
    for (const auto& why : unarmed_) std::printf("\nFAIL: %s\n", why.c_str());
    if (!unarmed_.empty()) return 1;
    if (!gate_ok_) {
      std::printf("\nFAIL: %s\n", fail_msg.c_str());
      return 1;
    }
    std::printf("\nOK: %s\n", ok_msg.c_str());
    return 0;
  }

 private:
  int reps_;
  Budget budget_;
  util::Table table_;
  bool gate_ok_ = true;
  std::vector<std::string> unarmed_;
};

}  // namespace obliv::bench
