// Shared plumbing for the obliv benchmark: clocks, order statistics, the
// metric/check report, and the in-memory span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Times one call of `f` in seconds.
template <class F>
double time_s(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]) of a copy of `v`; 0 for empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Samples strictly above the q-quantile: a tail percentile is reported
/// only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

/// The workload: the input distribution every phase draws from.
/// kUniform: i.i.d. uniform sort keys and a uniformly random list order.
/// kSkewed: sort keys drawn from 64 values (duplicate-heavy), and a list
/// whose nodes lie near their rank (shuffled within blocks of 64), so list
/// ranking chases mostly local pointers.
enum class Dist : std::uint8_t { kUniform, kSkewed };

/// What the benchmark was asked to do (parsed from the command line).
struct Options {
  Dist dist = Dist::kUniform;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

/// Collects metrics and output checks; prints the final JSON line.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// One checked operation; returns `ok` so callers can log failures.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  /// An operation that failed without producing output (refused job).
  void fail(const std::string& what) { check(false, what); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable log line (stdout; never the last line).
  template <class... Args>
  static void log(const char* fmt, Args... args) {
    std::printf(fmt, args...);
    std::printf("\n");
    std::fflush(stdout);
  }

  void print_json() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for the traced run.  Spans are recorded by the
/// benchmark around its calls into each layer (no probes in the library):
/// name, start, end, parent span, and a job id shared by the spans of one
/// served job.  Single-threaded: only the benchmark's driving thread opens
/// spans.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t job = -1;     ///< job id, -1 = not a served job
  };

  void enable() { enabled_ = true; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// recording is off).
  std::int64_t open(std::string name, std::int64_t job = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  /// Records an already-finished span (served jobs complete out of order).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::int64_t parent, std::int64_t job) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), to_ns(start), to_ns(end), parent, job});
  }
  std::int64_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Duration minus the union of its direct children's intervals.
  double self_ms(std::size_t idx) const;

  /// Writes all spans as Chrome trace_event JSON (complete "X" events; the
  /// parent and job ids ride in args).  Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::int64_t now_ns() const { return to_ns(Clock::now()); }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span scope.
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::int64_t job = -1)
      : spans_(spans), idx_(spans.open(std::move(name), job)) {}
  ~Scope() { spans_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::int64_t idx_;
};

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
