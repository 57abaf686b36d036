// Standalone AddressSanitizer harness for the cache simulator and the
// simulating executor.
//
// Built as `obliv_sim_asan` with -fsanitize=address applied to exactly this
// translation unit plus cache_sim.cpp / config.cpp / sim_executor.cpp, so
// the tier-1 ctest flow sweeps the flat-table LRU, the sharer table, and
// the run-batched view layer under ASan on every run without instrumenting
// the whole build (mirrors the obliv_sched_tsan pattern).
//
// The scenarios target the manually-managed memory in the fast paths: the
// open-addressing table's grow/rehash with live tombstones, Node::slot
// backpointer resync, epoch-recycled sharer slots, the LRU victim ring's
// compaction and stamp renumbering, node recycling after an invalidation,
// the per-core block memo's drops, 1-line caches, clear() between runs,
// and SimRef run accessors crossing block boundaries.  A last scenario
// drives the sparse-matrix generators (algo/graphgen.hpp), whose
// counting-sort scatter and in-place duplicate compaction index A_v
// through computed offsets.
//
// A full ASan build of the whole suite is available via
//   cmake -B build-asan -S . -DOBLIV_SANITIZE=address
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "algo/graphgen.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "obs/trace.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Flat-table churn: random touches/erases over a key range far larger
/// than the cache, with power-of-two strides, repeatedly crossing the grow
/// threshold and recycling tombstones.
void lru_churn() {
  for (std::uint64_t stride : {1u, 8u, 512u}) {
    obliv::hm::LruCache c(64);
    obliv::util::Xoshiro256 rng(11 + stride);
    for (int op = 0; op < 200000; ++op) {
      const std::uint64_t b = (rng() % 4096) * stride;
      if (rng() % 8 == 0) {
        c.erase(b);
      } else {
        c.touch(b);
      }
    }
    check(c.size() <= 64, "lru_churn: size bounded by lines");
    c.clear();
    check(c.size() == 0, "lru_churn: clear empties");
  }
}

/// Hit-heavy stream on a cache that never fills: every retouch queues a
/// use and nothing pops, so the victim ring compacts over and over and the
/// stamps pass the renumbering threshold several times.  The first
/// eviction afterwards must still pick the least recently used block.
void queue_compaction() {
  obliv::hm::LruCache c(64);
  obliv::util::Xoshiro256 rng(5);
  std::map<std::uint64_t, int> last_use;  // block -> op of its last touch
  std::vector<std::uint32_t> node(48);
  for (std::uint64_t b = 0; b < 48; ++b) {
    c.touch(b);
    node[b] = c.last_node();
    last_use[b] = -1;
  }
  for (int op = 0; op < 3'000'000; ++op) {
    const std::uint64_t b = rng() % 48;
    if (op % 2 == 0) {
      c.touch(b);
    } else {
      c.touch_known(node[b]);
    }
    last_use[b] = op;
  }
  for (std::uint64_t b = 48; b < 64; ++b) c.touch(b);  // fills, no victim
  check(c.last_evicted() == obliv::obs::kNoEviction,
        "queue_compaction: no eviction before full");
  std::uint64_t lru = 0;
  for (const auto& [b, op] : last_use) {
    if (op < last_use[lru]) lru = b;
  }
  c.touch(1000);
  check(c.last_evicted() == lru, "queue_compaction: LRU victim after churn");
}

/// Coherence invalidations free L1 nodes that later installs recycle: core
/// 1's writes invalidate core 0's copies, core 0 installs fresh blocks into
/// the freed nodes, then re-reads the invalidated ones.  Every invalidation
/// is counted once and every re-read misses.
void node_recycling() {
  obliv::hm::CacheSim sim(obliv::hm::MachineConfig::shared_l2(4));
  const std::uint64_t b1 = 8;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t base = std::uint64_t(round) * 4096;
    for (std::uint64_t k = 0; k < 64; ++k) sim.access(0, base + k * b1, 1, false);
    for (std::uint64_t k = 0; k < 64; ++k) sim.access(1, base + k * b1, 1, true);
    for (std::uint64_t k = 0; k < 64; ++k) {
      sim.access(0, base + 2048 + k * b1, 1, false);  // recycled nodes
    }
    for (std::uint64_t k = 0; k < 64; ++k) sim.access(0, base + k * b1, 1, false);
  }
  check(sim.counters(1, 0).invalidations == 50 * 64,
        "node_recycling: one invalidation per written block");
  check(sim.counters(1, 0).misses == 50 * 3 * 64,
        "node_recycling: re-reads after invalidation miss");
}

/// A 9-block cycle through an 8-line L1 misses on every access: a memo slot
/// that outlived its block's eviction would turn those into hits.  Writes
/// from a second core, and a 1-line L1 on both cores, cover the same drop
/// after an invalidation and the smallest cache.
void memo_drop_and_one_line() {
  obliv::hm::CacheSim seq(obliv::hm::MachineConfig::sequential(64, 8));
  for (int op = 0; op < 9000; ++op) {
    seq.access(0, std::uint64_t(op % 9) * 8, 1, false);
  }
  check(seq.counters(1, 0).misses == 9000, "memo: evicted blocks miss");

  const obliv::hm::MachineConfig tiny(
      "one_line", {obliv::hm::LevelSpec{1, 1, 1}, obliv::hm::LevelSpec{4, 1, 2}});
  obliv::hm::CacheSim sim(tiny);
  obliv::util::Xoshiro256 rng(3);
  for (int op = 0; op < 100000; ++op) {
    sim.access(rng() % 2, rng() % 6, 1 + rng() % 3, rng() % 3 == 0);
  }
  for (std::uint32_t core = 0; core < 2; ++core) {
    const auto& c = sim.counters(1, core);
    check(c.misses - c.evictions - c.invalidations <= 1,
          "one_line: L1 holds at most one block");
  }
  for (int op = 0; op < 1000; ++op) sim.access(0, op % 2, 1, false);
  check(sim.counters(1, 0).hits + sim.counters(1, 0).misses > 0,
        "one_line: counted");
}

/// clear() must leave no trace of the previous run: the same storm after a
/// clear() counts exactly what it counts on a fresh simulator.
void clear_between_runs() {
  const obliv::hm::MachineConfig cfg = obliv::hm::MachineConfig::figure1();
  auto storm = [&](obliv::hm::CacheSim& sim, std::uint64_t seed) {
    obliv::util::Xoshiro256 rng(seed);
    for (int op = 0; op < 50000; ++op) {
      sim.access(rng() % cfg.cores(), rng() % 20000, 1 + rng() % 24,
                 rng() % 4 == 0);
    }
  };
  auto counts = [&](const obliv::hm::CacheSim& sim) {
    std::vector<std::uint64_t> v{sim.pingpong_events(), sim.total_accesses()};
    for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
      for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
        const auto& c = sim.counters(lvl, i);
        v.insert(v.end(), {c.hits, c.misses, c.evictions, c.invalidations});
      }
    }
    return v;
  };
  obliv::hm::CacheSim reused(cfg);
  storm(reused, 1);
  reused.clear();
  storm(reused, 2);
  obliv::hm::CacheSim fresh(cfg);
  storm(fresh, 2);
  check(counts(reused) == counts(fresh), "clear: same counts as fresh");
}

/// Multicore access storm straight at CacheSim: all cores hammer a shared
/// region (ping-pong + invalidation paths) and private regions (memo fast
/// path), with run accesses spanning many blocks.
void sim_storm(const obliv::hm::MachineConfig& cfg) {
  obliv::hm::CacheSim sim(cfg);
  obliv::util::Xoshiro256 rng(7);
  const std::uint32_t p = cfg.cores();
  for (int op = 0; op < 300000; ++op) {
    const std::uint32_t core = rng() % p;
    const bool write = (rng() % 4) == 0;
    if (rng() % 16 == 0) {
      // Block-run access spanning up to 8 B_1 blocks.
      sim.access(core, rng() % 65536, 1 + rng() % 64, write);
    } else if (rng() % 2 == 0) {
      sim.access(core, rng() % 512, 1, write);  // shared, contended
    } else {
      sim.access(core, 100000 + core * 4096 + rng() % 2048, 1, write);
    }
  }
  check(sim.total_accesses() > 0, "sim_storm: accesses counted");
  sim.clear();
}

/// End-to-end: run-batched algorithms through SimExecutor (exercises
/// SimRef::load_run/store_run/load2, SimExecutor::copy splitting, and the
/// trace hook's vector growth).
void executor_workloads(const obliv::hm::MachineConfig& cfg) {
  obliv::sched::SimExecutor ex(cfg);
  std::vector<obliv::sched::TraceEntry> trace;
  ex.set_trace(&trace);

  auto buf = ex.make_buf<std::uint64_t>(1 << 12);
  obliv::util::Xoshiro256 rng(99);
  for (auto& v : buf.raw()) v = rng();
  ex.run(1 << 14, [&] { obliv::algo::spms_sort(ex, buf.ref()); });
  for (std::size_t i = 1; i < buf.raw().size(); ++i) {
    check(buf.raw()[i - 1] <= buf.raw()[i], "executor: sorted");
  }

  auto pf = ex.make_buf<std::int64_t>((1 << 12) + 3);  // odd tail
  for (auto& v : pf.raw()) v = 1;
  ex.run(1 << 14, [&] { obliv::algo::mo_prefix_sum(ex, pf.ref()); });
  check(pf.raw().back() == static_cast<std::int64_t>(pf.raw().size()),
        "executor: prefix sum total");

  ex.set_trace(nullptr);
  check(!trace.empty(), "executor: trace captured");
}

/// Sparse-matrix assembly: odd and 1x1 grids (direct separator-order fill
/// vs. the two-step permute), tree and random matrices, duplicate-heavy
/// out-of-order triples including rows of hundreds of entries, and every kInvalidArgument path (which must throw before writing).
void generator_assembly() {
  using namespace obliv::algo;
  for (std::uint64_t side : {0u, 1u, 3u, 17u, 31u}) {
    const SparseMatrix direct = grid_matrix_reordered(side, side);
    const SparseMatrix twostep =
        permute_matrix(grid_matrix(side, side), grid_separator_order(side));
    check(direct.valid(), "generators: reordered grid valid");
    check(direct.a0 == twostep.a0 && direct.av.size() == twostep.av.size(),
          "generators: direct fill matches permute shape");
    for (std::size_t t = 0; t < direct.av.size(); ++t) {
      if (direct.av[t].col != twostep.av[t].col ||
          direct.av[t].val != twostep.av[t].val) {
        check(false, "generators: direct fill matches permute entries");
        break;
      }
    }
  }
  check(tree_matrix_reordered(257, 3).valid(), "generators: tree valid");
  check(random_matrix(300, 5).valid(), "generators: random valid");

  // 1200 shuffled triples: at n = 1 and 5 every row holds hundreds of
  // entries and every column repeats dozens of times; at n = 64 rows stay
  // short and duplicates are sparse.
  for (std::uint64_t n : {1u, 5u, 64u}) {
    obliv::util::Xoshiro256 rng(n);
    std::vector<SpmTriple> triples;
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> expect;
    for (int k = 0; k < 1200; ++k) {
      const std::uint64_t r = rng.below(n), c = rng.below(n);
      const double v = rng.uniform() - 0.5;
      triples.push_back({r, c, v});
      auto [it, fresh] = expect.try_emplace({r, c}, v);
      if (!fresh) it->second += v;  // input-order sum
    }
    const SparseMatrix m = matrix_from_triples(n, triples);
    check(m.valid(), "generators: triples valid");
    if (m.nnz() != expect.size()) {
      check(false, "generators: duplicates merged");
      continue;
    }
    bool same = true;
    auto it = expect.begin();
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t t = m.a0[i]; t < m.a0[i + 1]; ++t, ++it) {
        same = same && it->first == std::make_pair(i, m.av[t].col) &&
               it->second == m.av[t].val;
      }
    }
    check(same, "generators: input-order duplicate sums");
  }

  auto throws = [](auto&& fn) {
    try {
      fn();
    } catch (const obliv::Error& e) {
      return e.code() == obliv::ErrorCode::kInvalidArgument;
    }
    return false;
  };
  check(throws([] { matrix_from_triples(4, {{0, 0, 1.0}, {4, 0, 1.0}}); }),
        "generators: row out of range throws");
  check(throws([] { matrix_from_triples(4, {{0, 0, 1.0}, {1, ~0ull, 1.0}}); }),
        "generators: column out of range throws");
  check(throws([] { matrix_from_triples(0, {{0, 0, 1.0}}); }),
        "generators: n = 0 with entries throws");
  const SparseMatrix g = grid_matrix(3);
  check(throws([&] { permute_matrix(g, {0, 1, 2}); }),
        "generators: short order throws");
  check(throws([&] { permute_matrix(g, {0, 1, 2, 3, 4, 5, 6, 7, 7}); }),
        "generators: repeated order entry throws");
  check(throws([&] { permute_matrix(g, {0, 1, 2, 3, 4, 5, 6, 7, 99}); }),
        "generators: order entry out of range throws");
  SparseMatrix bad = g;
  bad.av.back().col = 1u << 30;
  check(throws([&] { permute_matrix(bad, grid_separator_order(3)); }),
        "generators: invalid matrix throws");
}

}  // namespace

int main() {
  lru_churn();
  queue_compaction();
  node_recycling();
  memo_drop_and_one_line();
  clear_between_runs();
  sim_storm(obliv::hm::MachineConfig::shared_l2(4));
  sim_storm(obliv::hm::MachineConfig::figure1());
  executor_workloads(obliv::hm::MachineConfig::shared_l2(4));
  executor_workloads(obliv::hm::MachineConfig::figure1());
  generator_assembly();
  if (failures != 0) {
    std::fprintf(stderr, "%d scenario check(s) failed\n", failures);
    return 1;
  }
  std::puts("asan sim smoke: all scenarios clean");
  return 0;
}
