// obliv-trace: trace analytics CLI.
//
// Front-end for obs/analysis.hpp.  Three ways in:
//
//   obliv-trace analyze <trace.json> [--weights=w1,w2,...]
//       Ingest a Chrome trace exported by write_chrome_trace() and print
//       the work/span/parallelism report for every run it contains.
//       Refuses (exit 2) a trace whose flight-recorder rings overwrote
//       events: a truncated stream breaks begin/end nesting and would
//       silently yield a wrong span.
//
//   obliv-trace run <algo> [--n=N] [--weights=...] [--trace-out=PATH]
//       Run one algorithm in-process on the reference machine
//       (shared_l2(4)) with the tracer attached, print the report plus
//       histogram metrics, and optionally export the raw trace
//       (--trace-out= / OBLIV_TRACE_OUT, same contract as the benches).
//
//   obliv-trace bench [--out=PATH]
//       Run all seven paper algorithms at fixed sizes with fixed seeds
//       and write the work/span/parallelism + Brent-speedup summary as
//       JSON (default BENCH_span.json).  Output is byte-deterministic:
//       logical work-clock metrics only, fixed float formatting.
//
// Exit codes: 0 ok, 1 usage or I/O or malformed trace or a size the
// algorithm cannot take (e.g. a non-power-of-two FFT), 2 trace refused
// because events were dropped.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hm/config.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "sched/sim_executor.hpp"
#include "serve/serve.hpp"
#include "workload/workloads.hpp"

using namespace obliv;

namespace {

// Large enough that none of the built-in workloads drop events; each
// workload gets a fresh tracer so rings never accumulate across runs.
constexpr std::size_t kRingCapacity = std::size_t{1} << 20;

// ---------------------------------------------------------------------------
// Built-in workloads (registry instances with fixed seeds, reference machine).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* what;
  workload::Kind kind;
  std::uint64_t n;  ///< problem size knob (elements or matrix side)
  std::uint64_t seed;
};

constexpr Workload kWorkloads[] = {
    {"scan", "prefix sums (Sec III-A)", workload::Kind::kScan, 1u << 12, 5},
    {"transpose", "MO-MT matrix transposition (Thm 1)",
     workload::Kind::kTranspose, 64, 7},
    {"matmul", "recursive matrix multiply (Sec III-B)",
     workload::Kind::kMatmul, 32, 11},
    {"fft", "MO-FFT (Thm 2)", workload::Kind::kFft, 1u << 12, 13},
    {"sort", "SPMS sample-partition sort (Thm 3-5)", workload::Kind::kSort,
     1u << 12, 17},
    // n=64: n^2 words overflow an L1 (2048w), so the root anchors at the
    // shared L2 and the quadrant rounds fan out across the four L1s; at
    // n=32 the whole problem fits one L1 and correctly serializes.
    {"igep", "I-GEP Floyd-Warshall (Sec IV, Table I)", workload::Kind::kGep,
     64, 19},
    {"listrank", "MO-LR list ranking (Thm 7)", workload::Kind::kListRank,
     1u << 11, 23},
};

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Runs workload `w` at size `n` on `ex`; throws Error(kInvalidArgument)
/// for a size the algorithm cannot take.
void run_workload(sched::SimExecutor& ex, const Workload& w, std::uint64_t n) {
  workload::Instance<sched::SimExecutor>(ex, w.kind, n, w.seed).run(ex);
}

// ---------------------------------------------------------------------------
// Flag helpers
// ---------------------------------------------------------------------------

bool flag_value(int argc, char** argv, std::string_view key,
                std::string& out) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() > key.size() && arg.substr(0, key.size()) == key) {
      out = std::string(arg.substr(key.size()));
      return true;
    }
  }
  return false;
}

std::vector<std::uint64_t> parse_weights(const std::string& csv) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "obliv-trace: work/span analytics over obs traces\n"
      "\n"
      "usage:\n"
      "  obliv-trace analyze <trace.json> [--weights=w1,w2,...]\n"
      "  obliv-trace run <algo> [--n=N] [--weights=...] [--trace-out=PATH]\n"
      "  obliv-trace bench [--out=PATH]\n"
      "  obliv-trace list\n"
      "\n"
      "algos: ");
  for (const auto& w : kWorkloads) std::fprintf(stderr, "%s ", w.name);
  std::fprintf(stderr, "\nexit codes: 0 ok, 1 error, 2 trace refused "
                       "(dropped events)\n");
  return 1;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

// Serve job-lane summary.  Traces recorded while a serve::Server was
// attached carry kJobAdmit/kJobBegin/kJobEnd events (job seq in `a`,
// Family in `detail`, wait/run ns in the begin/end `b`, ErrorCode in the
// end `c`), plus kJobCancel (poison-to-completion ns in `b`, poison reason
// in `c`) for jobs condemned mid-run and kJobShed (queue-wait p99 in `b`,
// retry hint ms in `c`) for overload refusals.  A served trace may contain
// *only* those events -- the sim DAG analysis has nothing to chew on then,
// but the job lane is still worth a report, so this prints independently
// of obs::analyze().
bool print_serve_summary(const obs::TraceData& trace) {
  struct FamilyStats {
    std::uint64_t admitted = 0, completed = 0, ok = 0;
    std::uint64_t cancelled = 0, deadline = 0, shed = 0;
    std::vector<std::uint64_t> wait_ns, run_ns, poison_ns;
  };
  std::map<std::uint8_t, FamilyStats> fams;
  for (const obs::Event& e : trace.events) {
    switch (e.kind) {
      case obs::EventKind::kJobAdmit:
        fams[e.detail].admitted++;
        break;
      case obs::EventKind::kJobBegin:
        fams[e.detail].wait_ns.push_back(e.b);
        break;
      case obs::EventKind::kJobEnd: {
        FamilyStats& fs = fams[e.detail];
        fs.completed++;
        if (e.c == 0) fs.ok++;
        fs.run_ns.push_back(e.b);
        break;
      }
      case obs::EventKind::kJobCancel: {
        // c carries sched::CancelToken::Reason: 1 = cancel, 2 = deadline.
        FamilyStats& fs = fams[e.detail];
        if (e.c == 2) {
          fs.deadline++;
        } else {
          fs.cancelled++;
        }
        fs.poison_ns.push_back(e.b);
        break;
      }
      case obs::EventKind::kJobShed:
        fams[e.detail].shed++;
        break;
      default:
        break;
    }
  }
  if (fams.empty()) return false;

  auto p50 = [](std::vector<std::uint64_t>& v) -> double {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return static_cast<double>(v[v.size() / 2]) / 1e3;
  };
  auto max_us = [](const std::vector<std::uint64_t>& v) -> double {
    if (v.empty()) return 0.0;
    return static_cast<double>(*std::max_element(v.begin(), v.end())) / 1e3;
  };

  std::printf("serve job lane\n");
  std::printf("  %-10s %8s %8s %6s %12s %12s %12s %12s\n", "family", "admit",
              "done", "ok", "wait p50 us", "wait max us", "run p50 us",
              "run max us");
  bool any_condemned = false, any_shed = false;
  for (auto& [fam, fs] : fams) {
    const auto f = static_cast<serve::Family>(fam);
    std::printf("  %-10s %8" PRIu64 " %8" PRIu64 " %6" PRIu64
                " %12.1f %12.1f %12.1f %12.1f\n",
                std::string(serve::family_name(f)).c_str(), fs.admitted,
                fs.completed, fs.ok, p50(fs.wait_ns), max_us(fs.wait_ns),
                p50(fs.run_ns), max_us(fs.run_ns));
    any_condemned |= !fs.poison_ns.empty();
    any_shed |= fs.shed != 0;
  }
  // Cancellation / overload rows only when the trace has something to say
  // (most traces have no condemned jobs and the extra table would be
  // noise).  "poison" latencies are poison-to-completion: how fast the
  // tree unwound once condemned.
  if (any_condemned || any_shed) {
    std::printf("  cancellation / overload\n");
    std::printf("  %-10s %8s %8s %8s %14s %14s\n", "family", "cancel",
                "dl-run", "shed", "poison p50 us", "poison max us");
    for (auto& [fam, fs] : fams) {
      if (fs.poison_ns.empty() && fs.shed == 0) continue;
      const auto f = static_cast<serve::Family>(fam);
      std::printf("  %-10s %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                  " %14.1f %14.1f\n",
                  std::string(serve::family_name(f)).c_str(), fs.cancelled,
                  fs.deadline, fs.shed, p50(fs.poison_ns),
                  max_us(fs.poison_ns));
    }
  }
  return true;
}

int report_all(const obs::TraceData& trace, const obs::AnalysisOptions& opts,
               std::string_view title_prefix) {
  if (trace.dropped_events != 0) {
    std::fprintf(stderr,
                 "obliv-trace: refusing to analyze: %" PRIu64
                 " events were dropped by the flight recorder; the "
                 "begin/end nesting is incomplete and any span computed "
                 "from it would be wrong.  Re-record with a larger ring "
                 "(Tracer capacity) or a smaller run.\n",
                 trace.dropped_events);
    return 2;
  }
  auto runs = obs::analyze(trace, opts);
  if (!runs.ok()) {
    // A trace recorded from a serve::Server has job-lane events but no sim
    // task DAG; that is a complete, analyzable artifact in its own right,
    // not an error.
    if (print_serve_summary(trace)) return 0;
    std::fprintf(stderr, "obliv-trace: %s\n",
                 runs.status().message().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < runs.value().size(); ++i) {
    std::string title(title_prefix);
    if (runs.value().size() > 1) {
      title += " (run " + std::to_string(i + 1) + " of " +
               std::to_string(runs.value().size()) + ")";
    }
    std::fputs(obs::render_report(runs.value()[i], title).c_str(), stdout);
    if (i + 1 < runs.value().size()) std::fputs("\n", stdout);
  }
  // Mixed traces (sim DAG + serve lane) get both reports.
  print_serve_summary(trace);
  return 0;
}

int mode_analyze(int argc, char** argv) {
  if (argc < 3) return usage();
  const char* path = argv[2];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "obliv-trace: cannot open %s\n", path);
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  auto trace = obs::parse_chrome_trace(json);
  if (!trace.ok()) {
    std::fprintf(stderr, "obliv-trace: %s: %s\n", path,
                 trace.status().message().c_str());
    return 1;
  }
  obs::AnalysisOptions opts;
  std::string w;
  if (flag_value(argc, argv, "--weights=", w)) opts.miss_weights =
      parse_weights(w);
  return report_all(trace.value(), opts, path);
}

int mode_run(int argc, char** argv) {
  if (argc < 3) return usage();
  const Workload* w = find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "obliv-trace: unknown algo '%s' (try list)\n",
                 argv[2]);
    return 1;
  }
  std::uint64_t n = w->n;
  std::string s;
  if (flag_value(argc, argv, "--n=", s)) {
    n = std::strtoull(s.c_str(), nullptr, 10);
    if (n == 0) {
      std::fprintf(stderr, "obliv-trace: bad --n\n");
      return 1;
    }
  }
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  obs::Tracer tracer(1, kRingCapacity);
  sched::SimExecutor ex(cfg);
  ex.set_tracer(&tracer);
  try {
    run_workload(ex, *w, n);
  } catch (const std::exception& e) {  // bad size, or more memory than we have
    std::fprintf(stderr, "obliv-trace: %s\n", e.what());
    return 1;
  }
  ex.set_tracer(nullptr);

  const std::string out = obs::resolve_trace_out(argc, argv);
  if (!out.empty()) obs::write_chrome_trace(out, tracer);

  obs::AnalysisOptions opts;
  if (flag_value(argc, argv, "--weights=", s)) opts.miss_weights =
      parse_weights(s);
  std::string title = std::string(w->name) + " n=" + std::to_string(n) +
                      " on " + cfg.describe();
  const int rc = report_all(obs::capture_trace(tracer), opts, title);
  if (rc != 0) return rc;
  const std::string hist = obs::render_histograms(tracer.counters());
  if (!hist.empty()) {
    std::fputs("\n-- histogram metrics --\n", stdout);
    std::fputs(hist.c_str(), stdout);
  }
  return 0;
}

void json_speedups(std::string& out, const std::vector<obs::SpeedupRow>& sp) {
  char tmp[128];
  out += "[";
  for (std::size_t i = 0; i < sp.size(); ++i) {
    std::snprintf(tmp, sizeof tmp,
                  "%s{\"p\":%u,\"work_clock\":%.6f,\"mem_weighted\":%.6f}",
                  i == 0 ? "" : ",", sp[i].p, sp[i].predicted_speedup,
                  sp[i].predicted_speedup_mem);
    out += tmp;
  }
  out += "]";
}

void json_u64s(std::string& out, const std::vector<std::uint64_t>& v) {
  char tmp[32];
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(tmp, sizeof tmp, "%s%" PRIu64, i == 0 ? "" : ",", v[i]);
    out += tmp;
  }
  out += "]";
}

int mode_bench(int argc, char** argv) {
  std::string path = "BENCH_span.json";
  std::string s;
  if (flag_value(argc, argv, "--out=", s)) path = s;

  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  std::string json = "{\n  \"machine\": \"" + cfg.describe() + "\",\n";
  json += "  \"note\": \"logical work-clock metrics from the deterministic "
          "simulator; speedups are Brent bounds W/(W/p+S), not wall-clock "
          "measurements\",\n";
  json += "  \"algorithms\": [\n";

  char tmp[256];
  bool first = true;
  for (const auto& w : kWorkloads) {
    obs::Tracer tracer(1, kRingCapacity);
    sched::SimExecutor ex(cfg);
    ex.set_tracer(&tracer);
    run_workload(ex, w, w.n);
    ex.set_tracer(nullptr);
    if (tracer.events_dropped() != 0) {
      std::fprintf(stderr,
                   "obliv-trace: bench workload %s dropped %" PRIu64
                   " events; enlarge kRingCapacity\n",
                   w.name, tracer.events_dropped());
      return 2;
    }
    auto runs = obs::analyze_tracer(tracer);
    if (!runs.ok() || runs.value().size() != 1) {
      std::fprintf(stderr, "obliv-trace: bench workload %s: %s\n", w.name,
                   runs.ok() ? "expected exactly one run"
                             : runs.status().message().c_str());
      return 1;
    }
    const obs::RunAnalysis& r = runs.value()[0];
    if (!r.span_matches_recorded) {
      std::fprintf(stderr,
                   "obliv-trace: bench workload %s: recomputed span "
                   "disagrees with executor (%" PRIu64 " tasks)\n",
                   w.name, r.span_mismatches);
      return 1;
    }
    if (!first) json += ",\n";
    first = false;
    std::snprintf(tmp, sizeof tmp,
                  "    {\"name\":\"%s\",\"n\":%" PRIu64 ",\"tasks\":%zu,"
                  "\"work\":%" PRIu64 ",\"span\":%" PRIu64
                  ",\"parallelism\":%.6f,",
                  w.name, w.n, r.tasks.size(), r.work, r.span, r.parallelism);
    json += tmp;
    std::snprintf(tmp, sizeof tmp,
                  "\"mem_work\":%" PRIu64 ",\"mem_span\":%" PRIu64
                  ",\"mem_parallelism\":%.6f,",
                  r.mem_work, r.mem_span, r.mem_parallelism);
    json += tmp;
    json += "\"miss_weights\":";
    json_u64s(json, r.miss_weights);
    json += ",\"total_misses\":";
    json_u64s(json, r.total_misses);
    json += ",\"predicted_speedup\":";
    json_speedups(json, r.speedups);
    json += "}";
    std::printf("%-10s n=%-6" PRIu64 " tasks=%-6zu work=%-10" PRIu64
                " span=%-8" PRIu64 " parallelism=%.3f\n",
                w.name, w.n, r.tasks.size(), r.work, r.span, r.parallelism);
  }
  json += "\n  ]\n}\n";

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "obliv-trace: cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int mode_list() {
  for (const auto& w : kWorkloads) {
    std::printf("%-10s n=%-6" PRIu64 " %s\n", w.name, w.n, w.what);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view mode = argv[1];
  if (mode == "analyze") return mode_analyze(argc, argv);
  if (mode == "run") return mode_run(argc, argv);
  if (mode == "bench") return mode_bench(argc, argv);
  if (mode == "list") return mode_list();
  return usage();
}
