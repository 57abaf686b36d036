// Access traces shared by the cache-simulator tests.
//
// `batching_traces(cfg)` is the executor-captured access stream of the
// Table-II workloads (scan, MO-MT, SPMS sort, I-GEP) on `cfg`, plus seeded
// random multi-word traces from every core.  CacheSimBatching.* replays
// them batched and word at a time; CacheSimOracle.* replays them through
// an independent naive model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "algo/gep.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "hm/config.hpp"
#include "hm/trace.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"

namespace obliv::hm::traces {

using Trace = std::vector<TraceEntry>;

/// The access stream `body` issues on a fresh SimExecutor for `cfg`.
inline Trace capture(const MachineConfig& cfg,
                     const std::function<void(sched::SimExecutor&)>& body) {
  sched::SimExecutor ex(cfg);
  Trace t;
  ex.set_trace(&t);
  body(ex);
  ex.set_trace(nullptr);
  return t;
}

/// `count` random runs of 1..max_words words from every core over
/// [0, footprint), a quarter of them writes: unaligned starts,
/// block-straddling runs, evictions inside a run, and invalidations
/// between runs.
inline Trace random_trace(const MachineConfig& cfg, std::uint64_t seed,
                          int count, std::uint64_t footprint,
                          std::uint64_t max_words) {
  util::Xoshiro256 rng(seed);
  Trace t;
  t.reserve(count);
  for (int i = 0; i < count; ++i) {
    t.push_back({rng.below(footprint),
                 static_cast<std::uint32_t>(1 + rng.below(max_words)),
                 static_cast<std::uint8_t>(rng.below(cfg.cores())),
                 static_cast<std::uint8_t>(rng.below(4) == 0)});
  }
  return t;
}

inline std::vector<std::pair<std::string, Trace>> batching_traces(
    const MachineConfig& cfg) {
  std::vector<std::pair<std::string, Trace>> out;
  out.emplace_back("scan", capture(cfg, [](sched::SimExecutor& ex) {
    const std::uint64_t n = 1 << 14;
    auto buf = ex.make_buf<std::int64_t>(n);
    for (std::uint64_t i = 0; i < n; ++i) buf.raw()[i] = std::int64_t(i & 7);
    ex.run(2 * n, [&] { algo::mo_prefix_sum(ex, buf.ref()); });
  }));
  out.emplace_back("mo-mt", capture(cfg, [](sched::SimExecutor& ex) {
    const std::uint64_t n = 64;
    auto a = ex.make_buf<double>(n * n);
    auto b = ex.make_buf<double>(n * n);
    for (std::uint64_t i = 0; i < n * n; ++i) a.raw()[i] = double(i);
    ex.run(3 * n * n, [&] { algo::mo_transpose(ex, a.ref(), b.ref(), n); });
  }));
  out.emplace_back("spms-sort", capture(cfg, [](sched::SimExecutor& ex) {
    const std::uint64_t n = 1 << 12;
    auto buf = ex.make_buf<std::uint64_t>(n);
    util::Xoshiro256 rng(4242);
    for (auto& v : buf.raw()) v = rng();
    ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
  }));
  out.emplace_back("igep", capture(cfg, [](sched::SimExecutor& ex) {
    const std::uint64_t n = 32;
    auto buf = ex.make_buf<double>(n * n);
    util::Xoshiro256 rng(7);
    for (auto& v : buf.raw()) v = rng.uniform();
    using Mat = sched::MatView<sched::SimRef<double>>;
    ex.run(n * n, [&] {
      algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(buf.ref(), n, n));
    });
  }));
  // A footprint larger than the caches.
  for (std::uint64_t seed : {1, 2, 3}) {
    out.emplace_back("random-" + std::to_string(seed),
                     random_trace(cfg, seed, 20000, 1 << 17, 96));
  }
  return out;
}

}  // namespace obliv::hm::traces
