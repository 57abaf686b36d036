// First-class access-trace types for the HM simulator (PR 6).
//
// bench_simrate introduced trace capture ad hoc; the sharded replay engine
// (hm/psim.hpp) promotes it into the hm layer proper so both the scheduler
// (sched/sim_executor.hpp re-exports TraceEntry) and the benches consume
// one canonical stream format without the hm layer depending on sched.
//
// Also home to the OBLIV_PSIM environment plumbing: the runtime switch
// between the serial oracle simulator and the sharded engine, the worker
// count, and the fuzz-reproduction seed.
#pragma once

#include <cstdint>

namespace obliv::hm {

/// One recorded memory access: the arguments SimExecutor::access passed to
/// the cache simulator.  Benches capture a workload's trace once and replay
/// it against different simulator implementations (bench_simrate);
/// MachineConfig caps cores at 64, so the core always fits a byte.
struct TraceEntry {
  std::uint64_t addr;
  std::uint32_t words;
  std::uint8_t core;
  std::uint8_t write;
};

/// A buffered access awaiting sharded simulation: the TraceEntry fields
/// plus the obs context captured at issue time (the executor's logical
/// work clock and the anchored task id), so deferred replay can emit
/// byte-identical trace events.
struct PsimAccess {
  std::uint64_t addr;
  std::uint32_t words;
  std::uint8_t core;
  std::uint8_t write;
  std::uint64_t ts;
  std::uint64_t task;
};

/// Which cache-simulation engine a SimExecutor run uses.
enum class PsimMode : std::uint8_t {
  kAuto = 0,  ///< OBLIV_PSIM env var, else serial
  kSerial,    ///< the serial oracle (hm::CacheSim directly)
  kSharded,   ///< sharded L1 replay with epoch-ordered merge (hm/psim.hpp)
};

/// Resolves kAuto against `OBLIV_PSIM=serial|sharded` and, failing that,
/// to serial on every host: the sharded engine is an explicit opt-in, as
/// it replays the Table II traces slower than serial even on 4 cores
/// (EXPERIMENTS.md).  Explicit requests pass through unchanged.
PsimMode resolve_psim_mode(PsimMode requested);

/// Worker count for the sharded engine: `OBLIV_PSIM_THREADS=N` if set and
/// positive, else hardware_concurrency (min 1).
unsigned psim_threads_from_env();

/// Fuzz-seed override: `OBLIV_PSIM_SEED=<n>` if set, else `fallback`.
/// Mirrors fault::seed_from_env so failures print a one-variable repro.
std::uint64_t psim_seed_from_env(std::uint64_t fallback);

}  // namespace obliv::hm
