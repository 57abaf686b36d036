// Simulator-throughput bench: simulated word accesses per second.
//
// Every Table II / Theorem bench is bottlenecked by hm::CacheSim, not by
// the algorithms being measured, so regeneration time of the paper's
// results is a direct function of this number.
//
// Methodology (interference-robust on a noisy host):
//
//   1. Each workload's access stream is captured ONCE as a trace -- the raw
//      drivers (seq-read, run-read, part-rw) synthesize theirs, the paper
//      workloads (scan, MO-MT, SPMS sort, I-GEP) record the exact
//      (core, addr, words, write) stream the SimExecutor emits.
//   2. The trace is replayed through the current hm::CacheSim AND through
//      the vendored pre-optimization simulator (bench/baseline_sim.hpp),
//      with repetitions interleaved new/old/new/old in one process, so
//      ambient load perturbs both series equally.  The per-sim statistic is
//      the best of K reps (min time), the standard noise-robust choice for
//      a deterministic computation.  For the paper workloads the baseline
//      replays the UNBATCHED (word-at-a-time) expansion of the trace --
//      that is the stream the pre-PR views actually issued, since run
//      batching ships in the same PR as the simulator; the raw-* rows
//      compare both simulators on the identical call shape.
//   3. Before timing, both simulators' observable counters (misses,
//      evictions, invalidations, ping-pongs) are checked for equality on
//      their respective streams: the speedup only counts if the semantics
//      are identical.  (Counter equality across the batched/unbatched pair
//      is exactly the run-batching exactness claim of DESIGN.md.)
//
// The throughput numerator is simulated WORDS (sum of `words` over the
// trace), which is invariant to how the stream is chopped into calls; the
// "speedup" column is the like-for-like ratio the tentpole targets.  The
// stack-* rows additionally time the workloads end-to-end through the full
// SimExecutor stack (algorithm + scheduler + simulator), which is the cost
// the actual benches pay; they have no baseline counterpart in-process.
// PR 6 adds the sharded replay engine (hm/psim.hpp) to the comparison:
// every captured trace is additionally replayed through ShardedCacheSim
// ("psim-" rows, threads column > 1 on multi-core hosts), with the serial
// and sharded cells of each repetition run back-to-back in alternating
// order so ambient drift cancels out of their ratio.  `--threads=N`
// overrides the engine's worker count; `--psim-off-check` is the
// single-thread overhead guardrail (ctest: bench_simrate_psim_off_check).
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "algo/gep.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "bench/baseline_sim.hpp"
#include "bench/common.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/psim.hpp"
#include "hm/trace.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

int g_reps = 9;       // dropped to 2 under --smoke
unsigned g_threads = 0;  // --threads=N; 0 = engine default (env/host cores)

using Trace = std::vector<sched::TraceEntry>;

std::uint64_t trace_words(const Trace& t) {
  std::uint64_t w = 0;
  for (const auto& e : t) w += e.words > 0 ? e.words : 1;
  return w;
}

template <class Sim>
void replay(Sim& sim, const Trace& t) {
  sim.clear();
  for (const auto& e : t) sim.access(e.core, e.addr, e.words, e.write != 0);
}

/// Word-at-a-time expansion of a trace: every k-word range access becomes k
/// single-word accesses in address order.  All view element types here are
/// one word wide, so this is exactly the stream the pre-PR (unbatched)
/// SimRef layer issued for the same workload.
Trace unbatch(const Trace& t) {
  Trace out;
  out.reserve(t.size());
  for (const auto& e : t) {
    const std::uint32_t k = e.words > 0 ? e.words : 1;
    for (std::uint32_t w = 0; w < k; ++w) {
      out.push_back({e.addr + w, 1, e.core, e.write});
    }
  }
  return out;
}

/// Golden-set counter parity between the optimized simulator (on the
/// captured trace) and the baseline simulator (on its replay stream);
/// aborts the bench on any mismatch.
void check_parity(const hm::MachineConfig& cfg, const Trace& t,
                  const Trace& t_base, const std::string& name) {
  hm::CacheSim now(cfg);
  bench::BaselineCacheSim then(cfg);
  replay(now, t);
  replay(then, t_base);
  bool ok = now.pingpong_events() == then.pingpong_events();
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const auto& a = now.counters(lvl, i);
      const auto& b = then.counters(lvl, i);
      ok = ok && a.misses == b.misses && a.evictions == b.evictions &&
           a.invalidations == b.invalidations;
    }
  }
  if (!ok) {
    std::cerr << "FATAL: counter mismatch vs baseline simulator on " << name
              << " / " << cfg.name() << "\n";
    std::exit(1);
  }
}

/// Parity gate for the sharded replay engine: before a psim- row's rate
/// means anything, its counters on the trace must be identical to a plain
/// serial replay (the engine's whole claim is bit-exactness).
void check_psim_parity(const hm::MachineConfig& cfg, const Trace& t,
                       unsigned threads, const std::string& name) {
  hm::CacheSim serial(cfg);
  replay(serial, t);
  hm::CacheSim sim(cfg);
  hm::ShardedCacheSim engine(sim, threads);
  engine.replay(t.data(), t.size());
  bool ok = serial.pingpong_events() == sim.pingpong_events() &&
            serial.total_accesses() == sim.total_accesses();
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const auto& a = serial.counters(lvl, i);
      const auto& b = sim.counters(lvl, i);
      ok = ok && a.hits == b.hits && a.misses == b.misses &&
           a.evictions == b.evictions && a.invalidations == b.invalidations;
    }
  }
  if (!ok) {
    std::cerr << "FATAL: sharded replay counter mismatch vs serial on "
              << name << " / " << cfg.name() << " (threads=" << threads
              << ")\n";
    std::exit(1);
  }
}

struct Row {
  std::string bench;
  hm::MachineConfig cfg;
  std::uint64_t n = 0;
  Trace trace;               ///< empty for stack-* rows
  Trace trace_base;          ///< baseline replay stream (empty: use `trace`)
  std::function<std::uint64_t()> stack_run;  ///< stack-* rows only
  std::vector<double> ns_new, ns_base, ns_psim;
  std::uint64_t words = 0;
};

std::vector<Row> plan;

/// `pre_pr_stream` selects the baseline's replay stream: the word-at-a-time
/// expansion for view-captured workload traces (what the unbatched pre-PR
/// views issued), or the identical trace for the raw call-shape rows.
void add_trace(std::string bench, const hm::MachineConfig& cfg,
               std::uint64_t n, Trace t, bool pre_pr_stream = false) {
  Row r;
  r.bench = std::move(bench);
  r.cfg = cfg;
  r.n = n;
  r.words = trace_words(t);
  if (pre_pr_stream) {
    r.trace_base = unbatch(t);
    assert(trace_words(r.trace_base) == r.words);
  }
  r.trace = std::move(t);
  plan.push_back(std::move(r));
}

// ---- Raw trace generators -------------------------------------------------

/// Sequential word-at-a-time read scan by core 0, the common case the L0
/// filter targets.
Trace make_seq(std::uint64_t n) {
  Trace t;
  t.reserve(n);
  for (std::uint64_t a = 0; a < n; ++a) t.push_back({a, 1, 0, 0});
  return t;
}

/// The same scan issued as 512-word batched range accesses (the shape
/// SimRef::load_run / executor copy produce).
Trace make_run(std::uint64_t n) {
  Trace t;
  t.reserve(n / 512);
  for (std::uint64_t a = 0; a < n; a += 512) t.push_back({a, 512, 0, 0});
  return t;
}

/// All cores scan disjoint partitions, writing every 4th word: exercises
/// the sharer table and the write fast path without ping-ponging.
Trace make_part(const hm::MachineConfig& cfg, std::uint64_t n) {
  Trace t;
  t.reserve(n);
  const std::uint32_t p = cfg.cores();
  const std::uint64_t per = n / p;
  for (std::uint32_t c = 0; c < p; ++c) {
    for (std::uint64_t a = 0; a < per; ++a) {
      t.push_back({c * per + a, 1, static_cast<std::uint8_t>(c),
                   static_cast<std::uint8_t>((a & 3) == 0)});
    }
  }
  return t;
}

// ---- Workload trace capture + stack rows ----------------------------------

void add_stack(std::string bench, const hm::MachineConfig& cfg,
               std::uint64_t n, std::function<std::uint64_t()> run) {
  Row r;
  r.bench = "stack-" + bench;
  r.cfg = cfg;
  r.n = n;
  r.stack_run = std::move(run);
  r.words = r.stack_run();  // warm-up; also fixes the numerator
  plan.push_back(std::move(r));
}

void add_scan(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf = std::make_shared<sched::SimBuf<std::int64_t>>(
      ex->make_buf<std::int64_t>(n));
  auto rep = [ex, buf, n] {
    for (std::size_t i = 0; i < n; ++i) buf->raw()[i] = std::int64_t(i & 7);
    ex->run(2 * n, [&] { algo::mo_prefix_sum(*ex, buf->ref()); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("scan", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("scan", cfg, n, rep);
}

void add_transpose(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto a =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  auto out =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  for (std::size_t i = 0; i < n * n; ++i) a->raw()[i] = double(i);
  auto rep = [ex, a, out, n] {
    ex->run(3 * n * n,
            [&] { algo::mo_transpose(*ex, a->ref(), out->ref(), n); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("mo-mt", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("mo-mt", cfg, n, rep);
}

void add_sort(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf = std::make_shared<sched::SimBuf<std::uint64_t>>(
      ex->make_buf<std::uint64_t>(n));
  auto rep = [ex, buf, n] {
    util::Xoshiro256 rng(4242);
    for (auto& v : buf->raw()) v = rng();
    ex->run(4 * n, [&] { algo::spms_sort(*ex, buf->ref()); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("spms-sort", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("spms-sort", cfg, n, rep);
}

void add_gep(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  auto rep = [ex, buf, n] {
    util::Xoshiro256 rng(7);
    for (auto& v : buf->raw()) v = rng.uniform();
    using Mat = sched::MatView<sched::SimRef<double>>;
    ex->run(n * n, [&] {
      algo::igep<algo::FloydWarshallInstance>(*ex,
                                              Mat::full(buf->ref(), n, n));
    });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("igep", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("igep", cfg, n, rep);
}

// ---- --psim-off-check: single-thread engine overhead guardrail ------------

/// A scan workload's exact executor-emitted access stream, for overhead
/// measurement on a construct-realistic trace (epoch cuts, run batches).
Trace capture_scan_trace(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  bench::trace_attach(ex);
  auto buf = ex.make_buf<std::int64_t>(n);
  Trace t;
  ex.set_trace(&t);
  for (std::size_t i = 0; i < n; ++i) buf.raw()[i] = std::int64_t(i & 7);
  ex.run(2 * n, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
  ex.set_trace(nullptr);
  return t;
}

/// `--psim-off-check` mode: the guardrail for the sharded replay engine.
/// With one worker the engine skips epoch analysis entirely and degrades
/// to buffer-then-serial-replay, so its cost over a direct serial replay
/// is just the buffering -- the state an OBLIV_PSIM=sharded run on a
/// single-core host is in, which must stay within a 5% budget for the
/// opt-in to be harmless there.
///
/// Statistics mirror bench_wallclock --fault-off-check: per repetition the
/// serial / serial / engine cells run back-to-back (order alternating),
/// and the within-rep *ratio* is aggregated -- paired runs share the same
/// interference window, so host drift divides out.  Both ratios compare
/// cells adjacent to the shared middle cell; the A/A median is the
/// pairing-noise floor.  Gate (full mode only):
/// overhead <= max(5%, A/A + 1%).  Smoke measures and prints but does not
/// gate.
int psim_off_check(bool smoke, int reps) {
  bench::print_header("sharded replay engine overhead at 1 worker");
  std::printf("host hardware_concurrency = %u, gate %s\n",
              bench::host_concurrency(),
              smoke ? "off (smoke)" : "on (<= max(5%, A/A noise + 1%))");
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  const std::uint64_t raw_n = smoke ? 1u << 16 : 1u << 20;
  struct Case {
    std::string name;
    Trace trace;
  };
  const Case cases[] = {
      {"raw-seq-read", make_seq(raw_n)},
      {"raw-part-rw", make_part(cfg, raw_n)},
      {"scan-trace", capture_scan_trace(cfg, smoke ? 1u << 12 : 1u << 16)},
  };
  util::Table t({"trace", "serial ns", "A/A noise", "engine ns", "overhead"});
  bool gate_ok = true;
  struct Measurement {
    double best_off, best_on, noise_pct, over_pct;
  };
  auto measure = [&](const Case& c) {
    hm::CacheSim serial_sim(cfg);
    hm::CacheSim engine_sim(cfg);
    hm::ShardedCacheSim engine(engine_sim, /*threads=*/1);
    auto run_serial = [&] { replay(serial_sim, c.trace); };
    auto run_engine = [&] {
      engine_sim.clear();
      engine.replay(c.trace.data(), c.trace.size());
    };
    run_serial();  // warm-up
    run_engine();
    std::vector<double> over_ratios, noise_ratios;
    double best_off = 0, best_on = 0;
    for (int r = 0; r < reps; ++r) {
      double a, a2, b;
      if (r % 2 == 0) {
        a = bench::time_once_ns(run_serial);
        a2 = bench::time_once_ns(run_serial);
        b = bench::time_once_ns(run_engine);
      } else {
        b = bench::time_once_ns(run_engine);
        a2 = bench::time_once_ns(run_serial);
        a = bench::time_once_ns(run_serial);
      }
      over_ratios.push_back(b / a2);
      noise_ratios.push_back(a / a2);
      const double off = std::min(a, a2);
      if (r == 0 || off < best_off) best_off = off;
      if (r == 0 || b < best_on) best_on = b;
    }
    auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    return Measurement{best_off, best_on,
                       100.0 * std::abs(median(noise_ratios) - 1.0),
                       100.0 * (median(over_ratios) - 1.0)};
  };
  auto within = [smoke](const Measurement& m) {
    return smoke || m.over_pct <= std::max(5.0, m.noise_pct + 1.0);
  };
  for (const auto& c : cases) {
    Measurement m = measure(c);
    bool ok = within(m);
    if (!ok) {
      // Confirm before failing: a real buffering regression reproduces; a
      // host-load resonance artifact does not.
      m = measure(c);
      ok = within(m);
    }
    gate_ok = gate_ok && ok;
    t.add_row({c.name + (ok ? "" : "  <-- FAIL"),
               util::Table::fmt(m.best_off, "%.0f"),
               util::Table::fmt(m.noise_pct, "%.2f%%"),
               util::Table::fmt(m.best_on, "%.0f"),
               util::Table::fmt(m.over_pct, "%+.2f%%")});
  }
  t.print(std::cout);
  if (!gate_ok) {
    std::printf("\nFAIL: 1-worker sharded replay exceeds the 5%% budget\n");
    return 1;
  }
  std::printf("\nOK: 1-worker sharded replay within budget\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  bool psim_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--psim-off-check") psim_check = true;
    if (arg.rfind("--threads=", 0) == 0) {
      g_threads = static_cast<unsigned>(
          std::strtoul(arg.data() + 10, nullptr, 10));
    }
  }
  if (psim_check) return psim_off_check(smoke, smoke ? 3 : 15);
  if (smoke) g_reps = 2;
  bench::print_header("Simulator throughput (simulated word accesses/sec)");
  const unsigned psim_threads =
      g_threads != 0 ? g_threads : hm::psim_threads_from_env();
  std::cout << "host hardware_concurrency = " << bench::host_concurrency()
            << ", pinned = " << (bench::threads_pinned() ? "yes" : "no")
            << ", default engine = "
            << (hm::resolve_psim_mode(hm::PsimMode::kAuto) ==
                        hm::PsimMode::kSharded
                    ? "sharded (OBLIV_PSIM=sharded)"
                    : "serial (OBLIV_PSIM=sharded opts in)")
            << ", psim- rows at threads = " << psim_threads
            << " (capped per machine config)\n";
  const std::uint64_t raw_n = smoke ? 1u << 16 : 1u << 20;
  const hm::MachineConfig cfgs[] = {hm::MachineConfig::shared_l2(4),
                                    hm::MachineConfig::figure1()};
  for (const auto& cfg : cfgs) {
    bench::print_machine(cfg);
    add_trace("raw-seq-read", cfg, raw_n, make_seq(raw_n));
    add_trace("raw-run-read", cfg, raw_n, make_run(raw_n));
    add_trace("raw-part-rw", cfg, raw_n, make_part(cfg, raw_n));
    add_scan(cfg, smoke ? 1u << 12 : 1u << 16);
    add_transpose(cfg, smoke ? 32 : 128);
    add_sort(cfg, smoke ? 1u << 10 : 1u << 14);
    add_gep(cfg, smoke ? 32 : 64);
  }

  // Counter-parity gates: the speedup claims only stand on identical
  // semantics -- vs the vendored baseline AND vs the sharded replay engine.
  for (const auto& r : plan) {
    if (!r.trace.empty()) {
      check_parity(r.cfg, r.trace,
                   r.trace_base.empty() ? r.trace : r.trace_base, r.bench);
      check_psim_parity(r.cfg, r.trace, psim_threads, r.bench);
    }
  }

  // Timed phase.  Reps of every row are interleaved (rep r of all rows
  // before rep r+1 of any); within a replay row the baseline and the
  // current simulator alternate back-to-back, and the serial / sharded
  // cells additionally alternate their order by rep parity so neither
  // systematically inherits the tail of a load burst.
  std::vector<std::unique_ptr<hm::CacheSim>> sims_new;
  std::vector<std::unique_ptr<bench::BaselineCacheSim>> sims_base;
  std::vector<std::unique_ptr<hm::CacheSim>> sims_psim;
  std::vector<std::unique_ptr<hm::ShardedCacheSim>> engines;
  for (const auto& r : plan) {
    const bool has_trace = !r.trace.empty();
    sims_new.push_back(has_trace ? std::make_unique<hm::CacheSim>(r.cfg)
                                 : nullptr);
    sims_base.push_back(
        has_trace ? std::make_unique<bench::BaselineCacheSim>(r.cfg)
                  : nullptr);
    sims_psim.push_back(has_trace ? std::make_unique<hm::CacheSim>(r.cfg)
                                  : nullptr);
    engines.push_back(has_trace ? std::make_unique<hm::ShardedCacheSim>(
                                      *sims_psim.back(), psim_threads)
                                : nullptr);
  }
  for (int r = 0; r < g_reps; ++r) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      Row& row = plan[i];
      if (row.trace.empty()) {
        row.ns_new.push_back(bench::time_once_ns([&] { row.stack_run(); }));
        continue;
      }
      const Trace& tb = row.trace_base.empty() ? row.trace : row.trace_base;
      row.ns_base.push_back(
          bench::time_once_ns([&] { replay(*sims_base[i], tb); }));
      auto serial_cell = [&] {
        row.ns_new.push_back(
            bench::time_once_ns([&] { replay(*sims_new[i], row.trace); }));
      };
      auto psim_cell = [&] {
        row.ns_psim.push_back(bench::time_once_ns([&] {
          sims_psim[i]->clear();
          engines[i]->replay(row.trace.data(), row.trace.size());
        }));
      };
      if (r % 2 == 0) {
        serial_cell();
        psim_cell();
      } else {
        psim_cell();
        serial_cell();
      }
    }
  }

  bench::SimRateRecorder rec("BENCH_simrate.json");
  util::Table t({"bench", "config", "n", "words", "base Macc/s", "new Macc/s",
                 "speedup", "psim Macc/s", "T", "psim/serial"});
  double logsum = 0, logsum_mo = 0, logsum_psim = 0;
  int cnt = 0, cnt_mo = 0, cnt_psim = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Row& row = plan[i];
    const double best_new = *std::min_element(row.ns_new.begin(),
                                              row.ns_new.end());
    const double rate_new = double(row.words) / (best_new * 1e-9);
    double rate_base = 0, speedup = 0;
    if (!row.ns_base.empty()) {
      const double best_base = *std::min_element(row.ns_base.begin(),
                                                 row.ns_base.end());
      rate_base = double(row.words) / (best_base * 1e-9);
      speedup = rate_new / rate_base;
      logsum += std::log(speedup);
      ++cnt;
      if (row.bench != "raw-seq-read" && row.bench != "raw-run-read" &&
          row.bench != "raw-part-rw") {
        logsum_mo += std::log(speedup);
        ++cnt_mo;
      }
    }
    rec.add(row.bench, row.cfg.name(), row.n, row.words, rate_new, rate_base,
            speedup, g_reps);
    double rate_psim = 0, psim_speedup = 0;
    unsigned engine_threads = 0;
    if (!row.ns_psim.empty()) {
      const double best_psim = *std::min_element(row.ns_psim.begin(),
                                                 row.ns_psim.end());
      rate_psim = double(row.words) / (best_psim * 1e-9);
      // The psim row's baseline is the CURRENT serial simulator on the
      // same trace (not the vendored one): the column answers "what does
      // the parallel engine buy over serial replay today".
      psim_speedup = rate_psim / rate_new;
      engine_threads = engines[i]->threads();
      logsum_psim += std::log(psim_speedup);
      ++cnt_psim;
      rec.add("psim-" + row.bench, row.cfg.name(), row.n, row.words,
              rate_psim, rate_new, psim_speedup, g_reps, engine_threads);
    }
    t.add_row({row.bench, row.cfg.name(), std::to_string(row.n),
               std::to_string(row.words),
               rate_base > 0 ? util::Table::fmt(rate_base / 1e6, "%.2f") : "-",
               util::Table::fmt(rate_new / 1e6, "%.2f"),
               speedup > 0 ? util::Table::fmt(speedup, "%.2fx") : "-",
               rate_psim > 0 ? util::Table::fmt(rate_psim / 1e6, "%.2f") : "-",
               engine_threads > 0 ? std::to_string(engine_threads) : "-",
               psim_speedup > 0 ? util::Table::fmt(psim_speedup, "%.2fx")
                                : "-"});
  }
  t.print(std::cout);
  std::cout << "counter parity vs baseline simulator AND vs sharded replay "
               "engine: OK on all traces\n";
  std::cout << "geomean replay speedup: all "
            << util::Table::fmt(std::exp(logsum / cnt), "%.2f")
            << "x, Table-II workloads "
            << util::Table::fmt(std::exp(logsum_mo / cnt_mo), "%.2f") << "x\n";
  if (cnt_psim > 0) {
    std::cout << "geomean sharded-vs-serial replay: "
              << util::Table::fmt(std::exp(logsum_psim / cnt_psim), "%.2f")
              << "x at " << psim_threads
              << " requested thread(s) (expect < 1x when the host or the "
                 "request is single-threaded: same path plus buffering)\n";
  }
  rec.write();
  return 0;
}
