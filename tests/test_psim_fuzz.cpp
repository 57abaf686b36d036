// Parity fuzz for the sharded cache-simulation engine (hm/psim.hpp).
//
// The engine's claim is bit-exact determinism: for ANY access stream and
// ANY epoch partition, the sharded replay produces byte-identical
// per-level counters -- and, with a tracer attached, a byte-identical obs
// event stream -- versus the serial oracle.  This harness fuzzes exactly
// that claim:
//
//   * every HM workload (scan, transpose, FFT, sort, I-GEP, list ranking,
//     SpM-DV -- N-GEP runs on the NO accounting machine and produces no
//     cache-sim stream, so SpM-DV stands in as the seventh algorithm)
//     under serial vs sharded policies,
//   * randomized epoch boundaries: fuzzed epoch grains plus a synthetic
//     workload that issues random nested SB/CGC anchoring sequences with
//     cross-core read/write sharing (driven by FaultPlan's splitmix64
//     stream for reproducibility),
//   * the multi-threaded engine itself (4 workers regardless of host core
//     count) on captured multi-core traces, covering the conflict
//     analysis, parallel shard replay, and epoch-ordered merge,
//   * byte-identical Chrome-trace exports with a tracer attached.
//
// Reproduce a failing round with OBLIV_PSIM_SEED=<n> (printed in the
// failure message): the harness then fuzzes only that seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/psim.hpp"
#include "hm/trace.hpp"
#include "obs/trace.hpp"
#include "sched/sim_executor.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace obliv;  // NOLINT

constexpr int kFuzzRounds = 6;

/// The seed sweep: OBLIV_PSIM_SEED=<n> narrows the harness to one seed for
/// reproduction; otherwise a fixed arithmetic family.
std::vector<std::uint64_t> fuzz_seeds() {
  const std::uint64_t base = 0x9519f00dull;
  if (hm::psim_seed_from_env(0) != 0) {
    return {hm::psim_seed_from_env(0)};
  }
  std::vector<std::uint64_t> v;
  for (int i = 0; i < kFuzzRounds; ++i) {
    v.push_back(base + 1000003ull * static_cast<std::uint64_t>(i));
  }
  return v;
}

std::string repro(std::uint64_t seed) {
  return "serial/sharded parity violated under seed " + std::to_string(seed) +
         "; reproduce with OBLIV_PSIM_SEED=" + std::to_string(seed) +
         " ./obliv_tests --gtest_filter='PsimFuzz.*'";
}

// ---------------------------------------------------------------------------
// Workloads (registry instances; sizes and seeds mirror test_fault_fuzz)
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  workload::Kind kind;
  std::uint64_t n, seed;

  void run(sched::SimExecutor& ex) const {
    workload::Instance<sched::SimExecutor>(ex, kind, n, seed).run(ex);
  }
};

const Workload kWorkloads[] = {
    {"scan", workload::Kind::kScan, 4096, 97},
    {"transpose", workload::Kind::kTranspose, 32, 3},
    {"fft", workload::Kind::kFft, 256, 4242},
    {"sort", workload::Kind::kSort, 1024, 777},
    {"igep", workload::Kind::kGep, 24, 999},
    {"listrank", workload::Kind::kListRank, 512, 31337},
    {"spmdv", workload::Kind::kSpmdv, 8, 2024},  // grid side
};

/// Every observable simulator metric of one run, flattened: per-cache full
/// counters (hits/misses/evictions/invalidations), pingpong, accesses,
/// work, span.  Stricter than golden::flatten (per-cache, hits included).
std::vector<std::uint64_t> run_flattened(const hm::MachineConfig& cfg,
                                         hm::PsimMode mode,
                                         std::uint64_t grain,
                                         const Workload& w) {
  sched::SimPolicy pol;
  pol.psim = mode;
  pol.psim_epoch_grain = grain;
  sched::SimExecutor ex(cfg, pol);
  w.run(ex);
  std::vector<std::uint64_t> out;
  const hm::CacheSim& sim = ex.cache_sim();
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const hm::CacheCounters& c = ex.cache_sim().counters(lvl, i);
      out.push_back(c.hits);
      out.push_back(c.misses);
      out.push_back(c.evictions);
      out.push_back(c.invalidations);
    }
  }
  out.push_back(sim.pingpong_events());
  out.push_back(sim.total_accesses());
  out.push_back(ex.work());
  out.push_back(ex.span());
  return out;
}

// ---------------------------------------------------------------------------
// Policy-level parity: serial vs sharded executor runs
// ---------------------------------------------------------------------------

TEST(PsimFuzz, CountersMatchSerialOracleAllAlgorithms) {
  for (const hm::MachineConfig& cfg :
       {hm::MachineConfig::shared_l2(4), hm::MachineConfig::figure1()}) {
    for (const Workload& w : kWorkloads) {
      const auto serial =
          run_flattened(cfg, hm::PsimMode::kSerial, 0, w);
      const auto sharded =
          run_flattened(cfg, hm::PsimMode::kSharded, 0, w);
      EXPECT_EQ(serial, sharded)
          << w.name << " on " << cfg.name()
          << ": sharded counters diverge from the serial oracle";
    }
  }
}

TEST(PsimFuzz, RandomEpochGrains) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  // Serial baselines are mode- and seed-independent: compute them once.
  std::vector<std::vector<std::uint64_t>> baselines;
  for (const Workload& w : kWorkloads) {
    baselines.push_back(run_flattened(cfg, hm::PsimMode::kSerial, 0, w));
  }
  for (const std::uint64_t seed : fuzz_seeds()) {
    fault::FaultPlan plan(seed, fault::FaultOptions{});
    for (std::size_t wi = 0; wi < std::size(kWorkloads); ++wi) {
      // Tiny grains force many epochs and mid-construct hard-cap cuts.
      const std::uint64_t grain =
          1 + plan.pick(fault::InjectSite::kStealVictim, 513);
      const auto sharded =
          run_flattened(cfg, hm::PsimMode::kSharded, grain, kWorkloads[wi]);
      EXPECT_EQ(baselines[wi], sharded)
          << kWorkloads[wi].name << " with epoch grain " << grain << ": "
          << repro(seed);
    }
  }
}

// ---------------------------------------------------------------------------
// Random anchoring sequences: synthetic nested SB/CGC constructs with
// cross-core read/write sharing (exercises conflict detection + fallback)
// ---------------------------------------------------------------------------

void random_constructs(sched::SimExecutor& ex, sched::SimRef<std::uint64_t> v,
                       fault::FaultPlan& plan, int depth) {
  const auto site = fault::InjectSite::kPopOrder;
  const std::uint64_t n = v.size();
  if (depth >= 3 || n < 32) {
    // Leaf: a mix of strided reads, writes, and batched runs.
    for (std::uint64_t i = 0; i < n; i += 1 + plan.pick(site, 4)) {
      if (plan.pick(site, 2) == 0) {
        v.store(i, v.load(i) + i);
      } else {
        v.load(i);
      }
    }
    return;
  }
  switch (plan.pick(site, 4)) {
    case 0:
      ex.cgc_pfor(0, n, 1, [&](std::uint64_t a, std::uint64_t b) {
        for (std::uint64_t i = a; i < b; ++i) v.update(i, [](auto& x) { ++x; });
      });
      break;
    case 1:
      ex.sb_parallel2(
          n / 2, [&] { random_constructs(ex, v.slice(0, n / 2), plan, depth + 1); },
          n - n / 2,
          [&] { random_constructs(ex, v.slice(n / 2, n - n / 2), plan, depth + 1); });
      break;
    case 2:
      ex.sb_seq(n, [&] { random_constructs(ex, v, plan, depth + 1); });
      break;
    default: {
      const std::uint64_t parts = 2 + plan.pick(site, 3);
      const std::uint64_t per = (n + parts - 1) / parts;
      ex.cgc_sb_pfor(parts, per, [&](std::uint64_t k) {
        const std::uint64_t lo = k * per;
        if (lo >= n) return;
        random_constructs(ex, v.slice(lo, std::min(per, n - lo)), plan,
                          depth + 1);
      });
      break;
    }
  }
  // Cross-core sharing pressure: after the parallel construct, touch a
  // shared prefix (reads) and a few scattered writes, so consecutive
  // epochs see stale sharers and write conflicts (fallback coverage).
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n, 16); ++i) {
    if (plan.pick(site, 3) == 0) {
      v.store(i, i);
    } else {
      v.load(i);
    }
  }
}

TEST(PsimFuzz, RandomAnchoringSequences) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  for (const std::uint64_t seed : fuzz_seeds()) {
    auto run = [&](hm::PsimMode mode, std::uint64_t grain) {
      // Same derived stream both runs: the workload itself must be
      // identical; only the engine differs.
      fault::FaultPlan plan(seed, fault::FaultOptions{});
      sched::SimPolicy pol;
      pol.psim = mode;
      pol.psim_epoch_grain = grain;
      sched::SimExecutor ex(cfg, pol);
      auto buf = ex.make_buf<std::uint64_t>(2048);
      for (std::size_t i = 0; i < buf.size(); ++i) buf.raw()[i] = i;
      ex.run(2 * 2048,
             [&] { random_constructs(ex, buf.ref(), plan, 0); });
      std::vector<std::uint64_t> out;
      for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
        for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
          const hm::CacheCounters& c = ex.cache_sim().counters(lvl, i);
          out.insert(out.end(),
                     {c.hits, c.misses, c.evictions, c.invalidations});
        }
      }
      out.push_back(ex.cache_sim().pingpong_events());
      out.push_back(ex.cache_sim().total_accesses());
      out.push_back(ex.work());
      out.push_back(ex.span());
      return out;
    };
    fault::FaultPlan gplan(seed ^ 0xabcdull, fault::FaultOptions{});
    const std::uint64_t grain =
        1 + gplan.pick(fault::InjectSite::kStealVictim, 257);
    EXPECT_EQ(run(hm::PsimMode::kSerial, 0), run(hm::PsimMode::kSharded, grain))
        << repro(seed) << " (grain " << grain << ")";
  }
}

// ---------------------------------------------------------------------------
// Engine-level parity at 4 worker threads (forced, regardless of host):
// covers conflict analysis, concurrent shard replay, and the merge
// ---------------------------------------------------------------------------

void compare_sims(const hm::MachineConfig& cfg, const hm::CacheSim& a,
                  const hm::CacheSim& b, const std::string& what) {
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const hm::CacheCounters& ca = a.counters(lvl, i);
      const hm::CacheCounters& cb = b.counters(lvl, i);
      EXPECT_EQ(ca.hits, cb.hits) << what << " L" << lvl << "#" << i;
      EXPECT_EQ(ca.misses, cb.misses) << what << " L" << lvl << "#" << i;
      EXPECT_EQ(ca.evictions, cb.evictions) << what << " L" << lvl << "#" << i;
      EXPECT_EQ(ca.invalidations, cb.invalidations)
          << what << " L" << lvl << "#" << i;
    }
  }
  EXPECT_EQ(a.pingpong_events(), b.pingpong_events()) << what;
  EXPECT_EQ(a.total_accesses(), b.total_accesses()) << what;
}

TEST(PsimFuzz, MultiThreadedEngineMatchesOracleOnCapturedTraces) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  // Capture multi-core traces once, serially.
  std::vector<std::pair<const char*, std::vector<hm::TraceEntry>>> traces;
  for (const Workload& w : {kWorkloads[0], kWorkloads[1], kWorkloads[3]}) {
    sched::SimPolicy pol;
    pol.psim = hm::PsimMode::kSerial;
    sched::SimExecutor ex(cfg, pol);
    std::vector<hm::TraceEntry> t;
    ex.set_trace(&t);
    w.run(ex);
    traces.emplace_back(w.name, std::move(t));
  }
  std::uint64_t parallel_epochs = 0;
  for (const std::uint64_t seed : fuzz_seeds()) {
    fault::FaultPlan plan(seed, fault::FaultOptions{});
    for (const auto& [name, t] : traces) {
      const std::size_t epoch =
          1 + plan.pick(fault::InjectSite::kStealVictim, 1023);
      hm::CacheSim serial(cfg);
      for (const hm::TraceEntry& e : t) {
        serial.access(e.core, e.addr, e.words, e.write != 0);
      }
      hm::CacheSim sharded_sim(cfg);
      hm::ShardedCacheSim engine(sharded_sim, /*threads=*/4);
      ASSERT_EQ(engine.threads(), 4u);
      engine.replay(t.data(), t.size(), epoch);
      compare_sims(cfg, serial, sharded_sim,
                   std::string(name) + " epoch=" + std::to_string(epoch) +
                       " " + repro(seed));
      EXPECT_GT(engine.epochs(), 0u);
      parallel_epochs += engine.epochs() - engine.fallback_epochs();
    }
  }
  // The parallel shard/merge path must actually have run -- if every epoch
  // fell back to serial, the parity above would be vacuously true.
  EXPECT_GT(parallel_epochs, 0u)
      << "no conflict-free epoch took the parallel path";
}

// ---------------------------------------------------------------------------
// obs parity: the Chrome trace export must be byte-identical
// ---------------------------------------------------------------------------

TEST(PsimFuzz, ObsTraceExportByteIdentical) {
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  for (const Workload& w : {kWorkloads[0], kWorkloads[3], kWorkloads[4]}) {
    auto trace_of = [&](hm::PsimMode mode, std::uint64_t grain) {
      sched::SimPolicy pol;
      pol.psim = mode;
      pol.psim_epoch_grain = grain;
      sched::SimExecutor ex(cfg, pol);
      obs::Tracer tracer;
      ex.set_tracer(&tracer);
      w.run(ex);
      return obs::chrome_trace_json(tracer);
    };
    const std::string serial = trace_of(hm::PsimMode::kSerial, 0);
    // Two grains: default (few epochs) and tiny (many epochs + hard caps).
    EXPECT_EQ(serial, trace_of(hm::PsimMode::kSharded, 0))
        << w.name << ": sharded trace diverges (default grain)";
    EXPECT_EQ(serial, trace_of(hm::PsimMode::kSharded, 64))
        << w.name << ": sharded trace diverges (grain 64)";
  }
}

}  // namespace
