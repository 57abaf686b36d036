#include "common.hpp"

#include <sys/resource.h>

#include <fstream>

namespace perfbench {

void Report::print_json() const {
  // Every value must be a finite JSON number; a non-finite one is a bug in
  // the measurement, so it fails the run instead of being hidden.
  bool correct = failed_ == 0;
  std::string body;
  char buf[96];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = m.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "non-finite metric %s\n", m.name.c_str());
      correct = false;
      v = 0.0;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body += (i == 0 ? "" : ", ");
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), body.c_str());
  std::fflush(stdout);
}

double Spans::self_ms(std::size_t idx) const {
  const Span& s = spans_[idx];
  // Children of one parent never overlap (the recorder is single-threaded
  // and nests), except recorded job spans, which may; merge intervals.
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans_) {
    if (c.parent == static_cast<std::int64_t>(idx)) {
      kids.emplace_back(std::max(c.start_ns, s.start_ns),
                        std::min(c.end_ns, s.end_ns));
    }
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : kids) {
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << (s.job >= 0 ? 2 : 1) << ", \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3 << ", \"dur\": "
        << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << ", \"self_ms\": " << self_ms(i) << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
