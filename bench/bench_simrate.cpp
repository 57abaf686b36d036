// Simulator-throughput bench: simulated word accesses per second.
//
// Every Table II / Theorem bench is bottlenecked by hm::CacheSim, not by
// the algorithms being measured, so regeneration time of the paper's
// results is a direct function of this number.
//
// Methodology (interference-robust on a noisy host): each workload's access
// stream is captured ONCE as a trace -- the raw drivers (seq-read,
// run-read, part-rw) synthesize theirs, the paper workloads (scan, MO-MT,
// SPMS sort, I-GEP, MO-FFT, list ranking) record the exact (core, addr,
// words, write) stream the SimExecutor emits -- and then replayed through
// hm::CacheSim, best of K reps (min time, the standard noise-robust choice
// for a deterministic computation).  The throughput numerator is simulated WORDS (sum of
// `words` over the trace), which is invariant to how the stream is chopped
// into calls.  The stack-* rows additionally time the workloads end-to-end
// through the full SimExecutor stack (algorithm + scheduler + simulator),
// which is the cost the actual benches pay.
//
// Every captured trace is also replayed through the sharded replay engine
// (hm/psim.hpp; "psim-" rows, threads column > 1 on multi-core hosts),
// with the serial and sharded cells of each repetition run back-to-back in
// alternating order so ambient drift cancels out of their ratio; a parity
// gate first checks that both engines give identical counters.
// `--threads=N` overrides the engine's worker count; `--psim-off-check` is
// the single-thread overhead guardrail (ctest:
// bench_simrate_psim_off_check).  That run-batched accesses count exactly
// like their word-at-a-time expansion is a tier-1 test
// (CacheSimBatching.* in tests/test_cache_sim.cpp).
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "bench/common.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/psim.hpp"
#include "hm/trace.hpp"
#include "sched/sim_executor.hpp"
#include "workload/workloads.hpp"

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
  std::function<std::uint64_t()> stack_run;  ///< stack-* rows only
  std::vector<double> ns_new, ns_psim;
  std::uint64_t words = 0;
};

std::vector<Row> plan;

void add_trace(std::string bench, const hm::MachineConfig& cfg,
               std::uint64_t n, Trace t) {
  Row r;
  r.bench = std::move(bench);
  r.cfg = cfg;
  r.n = n;
  r.words = trace_words(t);
  r.trace = std::move(t);
  plan.push_back(std::move(r));
}

// ---- Raw trace generators -------------------------------------------------

/// Sequential word-at-a-time read scan by core 0, the common case the
/// block memo's most-recently-used check targets.
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

/// A registry workload: its executor-emitted access stream as a trace row,
/// and the same instance timed end to end (input reset included) as a
/// stack- row.
void add_workload(std::string bench, const hm::MachineConfig& cfg,
                  workload::Kind kind, std::uint64_t n, std::uint64_t seed) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto inst = std::make_shared<workload::Instance<sched::SimExecutor>>(
      *ex, kind, n, seed);
  auto rep = [ex, inst] {
    inst->reset();
    inst->run(*ex);
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace(bench, cfg, n, std::move(t));
  add_stack(std::move(bench), cfg, n, rep);
}

// ---- --psim-off-check: single-thread engine overhead guardrail ------------

/// A scan workload's exact executor-emitted access stream, for overhead
/// measurement on a construct-realistic trace (epoch cuts, run batches).
Trace capture_scan_trace(const hm::MachineConfig& cfg, std::uint64_t n) {
  sched::SimExecutor ex(cfg);
  bench::trace_attach(ex);
  workload::Instance<sched::SimExecutor> scan(ex, workload::Kind::kScan, n, 1);
  Trace t;
  ex.set_trace(&t);
  scan.run(ex);
  ex.set_trace(nullptr);
  return t;
}

/// `--psim-off-check` mode: the guardrail for the sharded replay engine.
/// With one worker the engine skips epoch analysis entirely and degrades
/// to buffer-then-serial-replay, so its cost over a direct serial replay
/// is just the buffering -- the state an OBLIV_PSIM=sharded run on a
/// single-core host is in, which must stay within budget (max(5%, A/A
/// noise + 1%)) for the opt-in to be harmless there.
int psim_off_check(bool smoke, int reps) {
  bench::Guardrail g("sharded replay engine overhead at 1 worker",
                     {"trace", "serial ns", "engine ns"}, reps,
                     bench::Budget{5.0, !smoke});
  std::printf("host hardware_concurrency = %u\n", bench::host_concurrency());
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
  for (const auto& c : cases) {
    hm::CacheSim serial_sim(cfg);
    hm::CacheSim engine_sim(cfg);
    hm::ShardedCacheSim engine(engine_sim, /*threads=*/1);
    g.check(c.name, bench::timed([&] { replay(serial_sim, c.trace); }),
            bench::timed([&] {
              engine_sim.clear();
              engine.replay(c.trace.data(), c.trace.size());
            }));
  }
  return g.finish("1-worker sharded replay within budget",
                  "1-worker sharded replay exceeds the budget");
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
    add_workload("scan", cfg, workload::Kind::kScan,
                 smoke ? 1u << 12 : 1u << 16, 1);
    add_workload("mo-mt", cfg, workload::Kind::kTranspose, smoke ? 32 : 128, 1);
    add_workload("spms-sort", cfg, workload::Kind::kSort,
                 smoke ? 1u << 10 : 1u << 14, 4242);
    add_workload("igep", cfg, workload::Kind::kGep, smoke ? 32 : 64, 7);
    add_workload("fft", cfg, workload::Kind::kFft,
                 smoke ? 1u << 10 : 1u << 14, 3);
    add_workload("listrank", cfg, workload::Kind::kListRank,
                 smoke ? 1u << 9 : 1u << 12, 5);
  }

  // Counter-parity gate: the sharded engine's rates only count on
  // identical semantics.
  for (const auto& r : plan) {
    if (!r.trace.empty()) check_psim_parity(r.cfg, r.trace, psim_threads, r.bench);
  }

  // Timed phase.  Reps of every row are interleaved (rep r of all rows
  // before rep r+1 of any); within a replay row the serial and sharded
  // cells alternate their order by rep parity so neither systematically
  // inherits the tail of a load burst.
  std::vector<std::unique_ptr<hm::CacheSim>> sims_new;
  std::vector<std::unique_ptr<hm::CacheSim>> sims_psim;
  std::vector<std::unique_ptr<hm::ShardedCacheSim>> engines;
  for (const auto& r : plan) {
    const bool has_trace = !r.trace.empty();
    sims_new.push_back(has_trace ? std::make_unique<hm::CacheSim>(r.cfg)
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
  util::Table t({"bench", "config", "n", "words", "Macc/s", "psim Macc/s",
                 "T", "psim/serial"});
  double logsum_psim = 0;
  int cnt_psim = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Row& row = plan[i];
    const double best_new = *std::min_element(row.ns_new.begin(),
                                              row.ns_new.end());
    const double rate_new = double(row.words) / (best_new * 1e-9);
    rec.add(row.bench, row.cfg.name(), row.n, row.words, rate_new, g_reps);
    double rate_psim = 0, psim_speedup = 0;
    unsigned engine_threads = 0;
    if (!row.ns_psim.empty()) {
      const double best_psim = *std::min_element(row.ns_psim.begin(),
                                                 row.ns_psim.end());
      rate_psim = double(row.words) / (best_psim * 1e-9);
      psim_speedup = rate_psim / rate_new;
      engine_threads = engines[i]->threads();
      logsum_psim += std::log(psim_speedup);
      ++cnt_psim;
      rec.add("psim-" + row.bench, row.cfg.name(), row.n, row.words,
              rate_psim, g_reps, engine_threads);
    }
    t.add_row({row.bench, row.cfg.name(), std::to_string(row.n),
               std::to_string(row.words),
               util::Table::fmt(rate_new / 1e6, "%.2f"),
               rate_psim > 0 ? util::Table::fmt(rate_psim / 1e6, "%.2f") : "-",
               engine_threads > 0 ? std::to_string(engine_threads) : "-",
               psim_speedup > 0 ? util::Table::fmt(psim_speedup, "%.2fx")
                                : "-"});
  }
  t.print(std::cout);
  std::cout << "counter parity vs sharded replay engine: OK on all traces\n";
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
