// Schedule-fuzz harness: the headline test of the fault-injection layer.
//
// The paper's algorithms are *oblivious*: their results (and, on the HM
// simulator, their cache-miss counters) are properties of the algorithm and
// the machine, not of the schedule.  This harness turns that into an
// executable claim -- for N seeded fault plans it runs every algorithm
// (the eight registry kinds of workload/workloads.hpp, plus N-GEP) under
// adversarial scheduling chaos (perturbed steal victims, inverted pop
// order, worker stalls, dropped wake-ups) and asserts the output is
// bit-identical to the fault-free run; on the simulator it additionally
// asserts every observable counter (per-level misses, evictions,
// invalidations, ping-pongs, work, span) is unchanged with a fault plan
// attached.
//
// Reproduce a failing seed with OBLIV_FAULT_SEED=<n> (printed in the
// failure message): the harness then fuzzes only that seed.
//
// The file also carries the rest of the robustness suite: FaultPlan
// determinism, typed-error negative tests for every public make() entry
// point (no assert/abort reachable from hostile input), hostile-config
// fuzz, injected allocation-failure storms, and the crash-trace
// post-mortem golden (byte-deterministic flush) + fatal-signal tests.
#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <complex>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/gep.hpp"
#include "fault/crash_dump.hpp"
#include "fault/fault.hpp"
#include "fault/status.hpp"
#include "golden_workloads.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "no/machine.hpp"
#include "no/ngep.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace obliv;  // NOLINT

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

constexpr int kFuzzSeeds = 32;

/// The seed sweep: OBLIV_FAULT_SEED=<n> narrows the whole harness to one
/// seed for reproduction; otherwise a fixed arithmetic family of
/// kFuzzSeeds seeds.
std::vector<std::uint64_t> fuzz_seeds() {
  if (auto s = fault::seed_from_env()) return {*s};
  std::vector<std::uint64_t> v;
  v.reserve(kFuzzSeeds);
  for (int i = 0; i < kFuzzSeeds; ++i) {
    v.push_back(0xf001f001ull + 1000003ull * static_cast<std::uint64_t>(i));
  }
  return v;
}

/// Failure annotation: how to re-run exactly this case.
std::string repro(std::uint64_t seed) {
  return "schedule-oblivious result violated under fault seed " +
         std::to_string(seed) + "; reproduce with OBLIV_FAULT_SEED=" +
         std::to_string(seed) +
         " ./obliv_tests --gtest_filter='FaultFuzz.*'";
}

// ---------------------------------------------------------------------------
// Native fuzz: results must be bit-identical under any chaos schedule
// ---------------------------------------------------------------------------

/// Runs registry instance (kind, n, seed) on a fresh 4-worker work-stealing
/// executor with `plan` attached (nullptr = fault-free reference) and
/// returns its output bytes.  A small grain forces real forking even at
/// fuzz-sized inputs.
std::vector<std::byte> run_native(fault::FaultPlan* plan, workload::Kind kind,
                                  std::uint64_t n, std::uint64_t seed) {
  sched::NativeExecutor ex(4, /*sequential_grain_words=*/128,
                           sched::SchedMode::kWorkSteal);
  workload::Instance<sched::NativeExecutor> inst(ex, kind, n, seed);
  ex.set_fault_plan(plan);
  inst.run(ex);
  ex.set_fault_plan(nullptr);
  EXPECT_TRUE(inst.check()) << workload::name(kind);
  return {inst.output().begin(), inst.output().end()};
}

/// The fuzz loop shared by all native algorithm tests: baseline without a
/// plan, then every seed under full chaos, asserting bit-identical output
/// (floating point included: every output element's arithmetic DAG is
/// fixed by the algorithm, whatever the schedule).
void fuzz_native(workload::Kind kind, std::uint64_t n, std::uint64_t seed) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  const auto baseline = run_native(nullptr, kind, n, seed);
  for (const std::uint64_t fault_seed : fuzz_seeds()) {
    fault::FaultPlan plan(fault_seed, fault::FaultOptions::chaos());
    const auto out = run_native(&plan, kind, n, seed);
    ASSERT_EQ(baseline, out) << repro(fault_seed);
    // The plan must actually have been consulted -- a silent disconnect
    // would make this whole harness vacuous.
    EXPECT_GT(plan.decisions(), 0u) << "fault plan was never consulted";
  }
}

// Each size sits well above its family's native leaf (sched::
// kNativeLeafWords): a native leaf consults no scheduler, and a CGC pass
// over fewer than four leaves runs as one chunk, so a smaller run would
// never see the plan.  Scan takes 32 blocks plus a tail, transpose 64 tiles,
// spmdv about 24 row blocks.
TEST(FaultFuzz, NativeScan) {
  fuzz_native(workload::Kind::kScan, 65541, 97);
}

TEST(FaultFuzz, NativeTranspose) {
  fuzz_native(workload::Kind::kTranspose, 256, 3);
}

TEST(FaultFuzz, NativeFft) {
  fuzz_native(workload::Kind::kFft, 4096, 4242);
}

TEST(FaultFuzz, NativeSort) {
  fuzz_native(workload::Kind::kSort, 8192, 777);
}

TEST(FaultFuzz, NativeGep) {
  fuzz_native(workload::Kind::kGep, 24, 999);
}

TEST(FaultFuzz, NativeListRank) {
  fuzz_native(workload::Kind::kListRank, 512, 31337);
}

TEST(FaultFuzz, NativeSpmdv) {
  fuzz_native(workload::Kind::kSpmdv, 64, 2024);  // grid side
}

TEST(FaultFuzz, NativeMatmul) {
  fuzz_native(workload::Kind::kMatmul, 32, 11);
}

// ---------------------------------------------------------------------------
// N-GEP: the NO accounting engine must be fault-layer transparent
// ---------------------------------------------------------------------------

TEST(FaultFuzz, NGepInvariantUnderAttachedPlan) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  const std::uint64_t n = 16;
  auto run = [n]() {
    util::Xoshiro256 rng(555);
    std::vector<double> x(n * n);
    for (auto& v : x) v = rng.uniform();
    no::NoMachine mach(16, {{16, 4}, {4, 2}});
    no::n_gep<algo::FloydWarshallInstance>(mach, x, n, /*use_dstar=*/true);
    return std::tuple(x, mach.communication(0), mach.communication(1),
                      mach.computation(0), mach.supersteps());
  };
  const auto baseline = run();
  for (const std::uint64_t seed : fuzz_seeds()) {
    // chaos() keeps allocation probabilities at zero, so an attached global
    // plan must be a pure pass-through: identical result *and* identical
    // accounting (communication/computation/superstep counts).
    fault::FaultPlan plan(seed, fault::FaultOptions::chaos());
    fault::ScopedFaultPlan scope(&plan);
    ASSERT_EQ(baseline, run()) << repro(seed);
  }
}

// ---------------------------------------------------------------------------
// Simulator: miss counters must be unchanged with a fault plan attached
// ---------------------------------------------------------------------------

TEST(FaultFuzz, SimCountersInvariantUnderAttachedPlan) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  auto sweep = [&cfg]() {
    std::vector<std::uint64_t> flat;
    auto push = [&flat](const golden::GoldenRun& g) {
      flat.insert(flat.end(), g.counts.begin(), g.counts.end());
    };
    push(golden::run_scan(cfg, 1024));
    push(golden::run_transpose(cfg, 32));
    push(golden::run_sort(cfg, 512));
    push(golden::run_gep(cfg, 16));
    // FFT on the simulator (not part of the golden sweep).
    sched::SimExecutor ex(cfg);
    workload::Instance<sched::SimExecutor> fft(ex, workload::Kind::kFft, 256,
                                               8080);
    golden::flatten(ex, fft.run(ex), flat);
    return flat;
  };
  const auto baseline = sweep();
  for (const std::uint64_t seed : fuzz_seeds()) {
    fault::FaultPlan plan(seed, fault::FaultOptions::chaos());
    fault::ScopedFaultPlan scope(&plan);
    ASSERT_EQ(baseline, sweep())
        << "simulator counters changed with a fault plan attached; " +
               repro(seed);
  }
}

// ---------------------------------------------------------------------------
// FaultPlan determinism
// ---------------------------------------------------------------------------

TEST(FaultFuzz, PlanDecisionStreamIsAPureFunctionOfTheSeed) {
  auto stream = [](std::uint64_t seed) {
    fault::FaultPlan p(seed, fault::FaultOptions::chaos());
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 256; ++i) {
      out.push_back(p.should(fault::InjectSite::kStealVictim) ? 1 : 0);
      out.push_back(p.pick(fault::InjectSite::kStealVictim, 7));
      out.push_back(p.should(fault::InjectSite::kWakeDrop) ? 1 : 0);
    }
    return out;
  };
  EXPECT_EQ(stream(42), stream(42));
  EXPECT_NE(stream(42), stream(43));
}

TEST(FaultFuzz, InertPlanNeverInjectsAndNeverDraws) {
  fault::FaultPlan p(7, fault::FaultOptions::inert());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(p.should(fault::InjectSite::kWorkerStall));
  }
  // Zeroed sites early-out before the shared decision counter: an inert
  // plan costs one load + branch per hook, like the detached state (the
  // --fault-off-check guardrail depends on this).
  EXPECT_EQ(p.decisions(), 0u);
  EXPECT_EQ(p.injected_total(), 0u);
}

// ---------------------------------------------------------------------------
// Typed errors: no assert/abort reachable from hostile input
// ---------------------------------------------------------------------------

TEST(FaultTypedErrors, MachineConfigMakeRejectsWithTypedCodes) {
  // Structural violation -> kInvalidConfig.
  auto shrink = hm::MachineConfig::make(
      "shrink", {{4096, 16, 1}, {65536, 8, 4}});
  ASSERT_FALSE(shrink.ok());
  EXPECT_EQ(shrink.status().code(), ErrorCode::kInvalidConfig);

  // Implementation limit -> kUnsupported.
  auto wide = hm::MachineConfig::make(
      "wide", {{1024, 8, 1}, {1024ull << 10, 8, 128}});
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), ErrorCode::kUnsupported);

  // Valid input -> value, and the legacy ctor agrees.
  auto good = hm::MachineConfig::make("good", {{1024, 8, 1}, {16384, 8, 4}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().cores(), 4u);
}

TEST(FaultTypedErrors, CacheSimRejectsDefaultConstructedConfig) {
  // A default MachineConfig has no levels; before the typed-error layer
  // this was silent out-of-bounds UB inside the table setup.
  auto r = hm::CacheSim::make(hm::MachineConfig{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidConfig);
  EXPECT_THROW(hm::CacheSim{hm::MachineConfig{}}, std::invalid_argument);
}

TEST(FaultTypedErrors, SimExecutorMakeMirrorsConfigValidation) {
  auto bad = sched::SimExecutor::make(hm::MachineConfig{});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidConfig);
  auto good = sched::SimExecutor::make(hm::MachineConfig::shared_l2(4));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().config().cores(), 4u);
}

TEST(FaultTypedErrors, NativeExecutorMakeRejectsAbsurdThreadCounts) {
  auto r = sched::NativeExecutor::make(sched::NativeExecutor::kMaxThreads + 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnsupported);
  auto ok = sched::NativeExecutor::make(2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().threads(), 2u);
}

TEST(FaultTypedErrors, NoMachineMakeRejectsDegenerateDescriptions) {
  // Each of these was a release-mode division by zero before validation.
  EXPECT_EQ(no::NoMachine::make(0, {}).status().code(),
            ErrorCode::kInvalidConfig);
  EXPECT_EQ(no::NoMachine::make(16, {{0, 4}}).status().code(),
            ErrorCode::kInvalidConfig);
  EXPECT_EQ(no::NoMachine::make(16, {{32, 4}}).status().code(),
            ErrorCode::kInvalidConfig);
  EXPECT_EQ(no::NoMachine::make(16, {{4, 0}}).status().code(),
            ErrorCode::kInvalidConfig);
  no::DbspConfig dbsp;
  dbsp.P = 8;  // g/B left empty: inconsistent
  EXPECT_EQ(no::NoMachine::make(16, {{4, 2}}, dbsp).status().code(),
            ErrorCode::kInvalidConfig);
  EXPECT_TRUE(no::NoMachine::make(16, {{4, 2}}).ok());
}

TEST(FaultTypedErrors, HostileConfigFuzzNeverCrashes) {
  // 512 random machine descriptions, most invalid: every one must come
  // back as a value or a typed error -- never an abort, assert, or UB
  // (ASan/UBSan builds of this test are the real teeth).
  util::Xoshiro256 rng(0xdecafbad);
  int ok = 0, invalid = 0, unsupported = 0;
  for (int t = 0; t < 512; ++t) {
    const int h = 1 + static_cast<int>(rng() % 4);
    std::vector<hm::LevelSpec> levels;
    for (int i = 0; i < h; ++i) {
      hm::LevelSpec lv;
      lv.capacity_words = rng() % 3 == 0 ? rng() : rng() % 65536;
      lv.block_words = rng() % 4 == 0 ? rng() % 1024 : 1 + rng() % 64;
      lv.fanin = i == 0 && rng() % 2 ? 1
                                     : static_cast<std::uint32_t>(rng() % 70000);
      levels.push_back(lv);
    }
    auto r = hm::MachineConfig::make("fuzz", levels);
    if (r.ok()) {
      ++ok;
      // Anything accepted must be safe to simulate.  (Only build the sim
      // for modest capacities: a *valid* petabyte-scale machine is fine to
      // describe but its LRU tables don't fit this container.)
      EXPECT_LE(r.value().cores(), 64u);
      bool modest = true;
      for (const auto& lv : levels) {
        if (lv.capacity_words > (1ull << 22)) modest = false;
      }
      if (modest) {
        EXPECT_TRUE(hm::CacheSim::make(std::move(r).value()).ok());
      }
    } else if (r.status().code() == ErrorCode::kUnsupported) {
      ++unsupported;
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidConfig);
      ++invalid;
    }
  }
  EXPECT_GT(invalid, 0);
  EXPECT_EQ(ok + invalid + unsupported, 512);
}

TEST(FaultTypedErrors, OverflowingFanoutCannotWrapThe64CoreCheck) {
  // Regression: fanins {1, 65536, 65536} wrap a 32-bit core product to 0
  // and used to slip past the > 64 rejection entirely.  Capacities chosen
  // to satisfy every structural rule so the core-count check is what fires.
  auto r = hm::MachineConfig::make(
      "wrap", {{64, 8, 1},
               {1ull << 22, 8, 65536},
               {1ull << 38, 8, 65536}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnsupported)
      << r.status().to_string();
}

// ---------------------------------------------------------------------------
// Injected allocation failures surface as kResourceExhausted
// ---------------------------------------------------------------------------

TEST(FaultAllocStorm, SimulatorSurfacesInjectedAllocFailures) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  fault::FaultPlan plan(1, fault::FaultOptions::alloc_storm());
  fault::ScopedFaultPlan scope(&plan);
  auto r = sched::SimExecutor::make(hm::MachineConfig::shared_l2(4));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_GT(plan.injected(fault::InjectSite::kAllocSim), 0u);
}

TEST(FaultAllocStorm, TryRunSurfacesBufferAllocFailures) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  sched::SimExecutor ex(hm::MachineConfig::shared_l2(4));
  fault::FaultPlan plan(2, fault::FaultOptions::alloc_storm());
  fault::ScopedFaultPlan scope(&plan);
  auto r = ex.try_run(1024, [&] {
    auto buf = ex.make_buf<std::int64_t>(512);  // injected bad_alloc
    (void)buf;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
  // The executor stays usable: a clean run afterwards succeeds.
  fault::ScopedFaultPlan detach(nullptr);
  auto ok = ex.try_run(1024, [&] {
    auto buf = ex.make_buf<std::int64_t>(512);
    buf.ref().store(0, 1);
  });
  EXPECT_TRUE(ok.ok());
}

TEST(FaultAllocStorm, ExecutorSetupSurvivesInjectedSpawnFailure) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out (OBLIV_FAULTS=OFF)";
  }
  // Every seed must yield either a working pool or a clean typed error --
  // and an error must not leak joinable threads (the ASan/TSan builds of
  // this test enforce the leak half; no deadlock enforces the join half).
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    fault::FaultPlan plan(seed, fault::FaultOptions::alloc_storm(20000));
    fault::ScopedFaultPlan scope(&plan);
    auto r = sched::NativeExecutor::make(4, 128, sched::SchedMode::kWorkSteal);
    if (r.ok()) {
      fault::ScopedFaultPlan detach(nullptr);
      std::atomic<int> hits{0};
      sched::cgc_pfor_each(r.value(), 0, 64, 1, [&](std::uint64_t) {
        hits.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(hits.load(), 64);
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-safe post-mortem traces
// ---------------------------------------------------------------------------

/// Builds the deterministic tracer used by the golden tests: logical clock,
/// three events, one counter.
void emit_fixture(obs::Tracer& tracer, std::uint64_t& clock) {
  tracer.set_logical_clock(&clock);
  clock = 10;
  tracer.emit(0, obs::EventKind::kTaskSpawn, 0, /*tid=*/1, 100, 2, 0);
  clock = 20;
  tracer.emit(0, obs::EventKind::kTaskSteal, 0, /*tid=*/2, 100, 1, 0);
  clock = 30;
  tracer.emit(0, obs::EventKind::kTaskComplete, 0, /*tid=*/2, 100, 0, 0);
  tracer.counters().set("fuzz.golden", 7);
}

std::string slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CrashTrace, FlushIsByteDeterministicAndGolden) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (OBLIV_TRACING=OFF)";
  }
  const char* path = "fault_fuzz_crash_trace.json";
  obs::Tracer tracer(1, 16);
  std::uint64_t clock = 0;
  emit_fixture(tracer, clock);
  fault::install_crash_handler(&tracer, path);
  ASSERT_TRUE(fault::flush_crash_trace());
  const std::string first = slurp(path);

  // Golden: the exact bytes of the flush, assembled from the same
  // event-name table the exporter uses.  Any format drift fails here.
  std::ostringstream want;
  want << "{\"traceEvents\":[\n";
  const struct {
    obs::EventKind kind;
    std::uint64_t ts, tid, b;
  } rows[] = {{obs::EventKind::kTaskSpawn, 10, 1, 2},
              {obs::EventKind::kTaskSteal, 20, 2, 1},
              {obs::EventKind::kTaskComplete, 30, 2, 0}};
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != 0) want << ",\n";
    want << "{\"name\":\"" << obs::event_name(rows[i].kind)
         << "\",\"ph\":\"i\",\"ts\":" << rows[i].ts
         << ",\"pid\":1,\"tid\":" << rows[i].tid
         << ",\"s\":\"t\",\"args\":{\"detail\":0,\"a\":100,\"b\":"
         << rows[i].b << ",\"c\":0}}";
  }
  want << "\n],\n\"crash\":{\"rings\":1,\"events_pushed\":3,"
          "\"events_dropped\":0},\n\"counters\":{\"fuzz.golden\":7}}\n";
  EXPECT_EQ(first, want.str());

  // Once-only latch: a second flush is a no-op until re-armed.
  EXPECT_FALSE(fault::flush_crash_trace());
  fault::rearm_crash_flush();
  ASSERT_TRUE(fault::flush_crash_trace());
  EXPECT_EQ(slurp(path), first) << "re-armed flush must be byte-identical";

  fault::uninstall_crash_handler();
  std::remove(path);
}

TEST(CrashTrace, FatalSignalProducesLoadableTrace) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (OBLIV_TRACING=OFF)";
  }
  const char* path = "fault_fuzz_crash_signal.json";
  std::remove(path);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: register the tracer, then die the way a real bug would.  The
    // handler must flush before the re-raised signal kills the process.
    obs::Tracer tracer(1, 16);
    std::uint64_t clock = 0;
    emit_fixture(tracer, clock);
    fault::install_crash_handler(&tracer, path);
    std::raise(SIGSEGV);
    _exit(0);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child should die by signal, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV) << "original signal must be re-raised";
  const std::string dump = slurp(path);
  ASSERT_FALSE(dump.empty()) << "no post-mortem trace written";
  // Loadable: the flush is a strict subset of the regular Chrome
  // trace_event schema (and, with a logical clock, byte-deterministic --
  // so it matches the directly-flushed golden exactly).
  EXPECT_EQ(dump.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(dump.find("\"ph\":\"i\",\"ts\":"), std::string::npos);
  EXPECT_NE(dump.find("\"events_pushed\":3"), std::string::npos);
  EXPECT_EQ(dump.substr(dump.size() - 2), "}\n");
  std::remove(path);
}

}  // namespace
