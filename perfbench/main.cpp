// obliv benchmark: one process drives the three phases of both stacks
// (native batch, serve mix, Table II model) and prints every metric by name
// and unit, ending with one JSON line.  See README.md for the metric map.
//
//   obliv_perfbench --workload uniform|skewed --seed <n> --seconds <s>
//                   --trace <0|1> [--smoke] [--spans-out <path>]
//
// The workload is the input distribution every phase draws from, so every
// run reports every end-to-end metric.  A run makes a fixed number of
// rounds, derived from --seconds alone; each round runs a native pass and a
// Table II regeneration.  With --trace 1 the rounds also serve the
// serve-mix traffic, the per-layer metrics are reported instead, and the
// spans the benchmark recorded around its layer calls are written to
// --spans-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common.hpp"
#include "model.hpp"
#include "native.hpp"
#include "serve_mix.hpp"

using namespace perfbench;

namespace {

// Nominal length of one untraced round (a native pass and one Table II
// regeneration) on the reference host.
constexpr double kRoundSeconds = 8.0;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: obliv_perfbench --workload "
               "uniform|skewed --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans-out PATH]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload, spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--spans-out") {
      spans_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (workload == "uniform") {
    opt.dist = Dist::kUniform;
  } else if (workload == "skewed") {
    opt.dist = Dist::kSkewed;
  } else {
    usage("unknown workload");
  }
  if (!(opt.seconds >= 0)) usage("--seconds must be >= 0");

  Spans spans;
  if (opt.trace) spans.enable();
  Report rep;

  // Set-up several times; the median is setup_s.  The serve-mix phase runs
  // only in the traced run (its latency figures are per-layer metrics; see
  // README.md), so only that run sets it up.
  std::unique_ptr<NativePhase> native;
  std::unique_ptr<ServePhase> served;
  std::unique_ptr<ModelPhase> model;
  std::vector<double> setup;
  for (int k = 0; k < (opt.smoke ? 1 : 5); ++k) {
    native.reset();
    served.reset();
    model.reset();
    Scope s(spans, "setup");
    setup.push_back(time_s([&] {
      native = std::make_unique<NativePhase>(opt, spans);
      if (opt.trace) served = std::make_unique<ServePhase>(opt, spans);
      model = std::make_unique<ModelPhase>(opt, spans);
    }));
  }
  Report::log("setup: %.4f s median of %zu", median(setup), setup.size());
  if (served) served->warmup(rep);
  model->serial_reference();

  // Interleaved rounds: each runs every phase of the run, so a burst of
  // load from other tenants of the host spoils a few samples of each metric
  // rather than all samples of one.  The count depends on --seconds only, never on
  // measured times, so a faster phase cannot buy the others more samples.
  // The traced run needs one round (with five serve rounds): its
  // per-layer metrics carry no bound.
  const int rounds =
      opt.smoke || opt.trace
          ? 1
          : std::max(1, static_cast<int>(std::lround(opt.seconds / kRoundSeconds)));
  // Safety cap only: a host so loaded that rounds take half again their
  // nominal length ends the run early rather than overrunning its limit.
  const double cap_s = 1.5 * std::max(opt.seconds, kRoundSeconds);
  const auto t0 = Clock::now();
  int done = 0;
  for (; done < rounds; ++done) {
    if (done > 0 && seconds_between(t0, Clock::now()) > cap_s) {
      Report::log("warning: stopped after %d of %d rounds (%.0f s cap)", done,
                  rounds, cap_s);
      break;
    }
    native->pass(rep);
    if (served) {
      for (int k = 0; k < (opt.smoke ? 2 : 5); ++k) served->round(rep);
    }
    model->regen_default(rep);
  }
  Report::log("%d rounds in %.1f s", done, seconds_between(t0, Clock::now()));

  if (!opt.trace) {
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    native->report_end_to_end(rep);
    model->report_end_to_end(rep);
  } else {
    // Each phase is released after its layers are reported: the model's
    // trace capture needs the memory.
    native->report_layers(rep);
    native.reset();
    served->report_layers(rep);
    served.reset();
    model->report_layers(rep);
    rep.add("fail_frac",
            static_cast<double>(rep.failed()) /
                static_cast<double>(std::max<std::uint64_t>(1, rep.attempted())),
            "frac");
    if (!spans_out.empty() && !spans.write(spans_out)) {
      std::fprintf(stderr, "warning: cannot write %s\n", spans_out.c_str());
    }
  }
  Report::log("checks: %llu attempted, %llu failed",
              static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()));
  rep.print_json();
  return 0;
}
