// The HM (hierarchical multi-level multicore) machine model of Section II.
//
// An HM machine with h levels has cores P_1..P_p at the bottom, caches at
// levels 1..h-1 of finite but increasing size, and an arbitrarily large
// shared memory at level h.  Level-i has q_i caches, each of capacity C_i
// words with block (cache-line) length B_i words; p_i consecutive
// level-(i-1) caches share one level-i cache.  The paper's structural
// constraints are enforced by MachineConfig::validate():
//
//   * p_1 = 1                      (each core has a private L1)
//   * p_h = 1                      (a single cache at level h-1, below memory)
//   * C_i >= c_i * p_i * C_{i-1}   (cache growth; c_i >= 1)
//   * C_i >= B_i^2                 (tall cache, assumed by all theorems)
//
// All sizes are in *words* (one word = one element of a unit-size array);
// workloads measured by the simulator use word-granular addresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/status.hpp"

namespace obliv::hm {

/// Parameters of one cache level.
struct LevelSpec {
  std::uint64_t capacity_words = 0;  ///< C_i: cache size in words.
  std::uint64_t block_words = 0;     ///< B_i: block transfer size in words.
  std::uint32_t fanin = 1;           ///< p_i: level-(i-1) caches sharing one
                                     ///< level-i cache (p_1 == 1 by model).
};

/// Full description of an HM machine.  `levels[k]` describes cache level
/// k+1; the shared memory at level h is implicit (infinite, above the last
/// cache level).
class MachineConfig {
 public:
  MachineConfig() = default;

  /// Validating constructor; throws obliv::Error (an std::invalid_argument)
  /// on any structural violation.  Prefer make() on untrusted input.
  MachineConfig(std::string name, std::vector<LevelSpec> levels);

  /// Non-throwing companion: returns the validated config or the typed
  /// error explaining the violation.  This is the entry point for
  /// user-supplied (potentially hostile) machine descriptions -- no
  /// assert or abort is reachable through it.
  static Result<MachineConfig> make(std::string name,
                                    std::vector<LevelSpec> levels) noexcept;

  /// Number of cache levels (h - 1 in the paper's numbering).
  std::uint32_t cache_levels() const {
    return static_cast<std::uint32_t>(levels_.size());
  }

  /// h: cache levels plus the shared-memory level.
  std::uint32_t h() const { return cache_levels() + 1; }

  /// p: total number of cores, prod_{i=1..h-1} p_i.
  std::uint32_t cores() const { return cores_; }

  /// q_i: number of caches at 1-based level `level`.
  std::uint32_t caches_at(std::uint32_t level) const;

  /// p'_i: number of cores under (subtended by) any one level-`level` cache.
  std::uint32_t cores_under(std::uint32_t level) const;

  /// C_i in words, 1-based level.
  std::uint64_t capacity(std::uint32_t level) const {
    return levels_[level - 1].capacity_words;
  }

  /// B_i in words, 1-based level.
  std::uint64_t block(std::uint32_t level) const {
    return levels_[level - 1].block_words;
  }

  /// Index of the level-`level` cache above core `core` (the cache whose
  /// shadow contains the core).
  std::uint32_t cache_of(std::uint32_t core, std::uint32_t level) const {
    return core / cores_under(level);
  }

  /// First core in the shadow of cache `idx` at 1-based `level`.
  std::uint32_t first_core_under(std::uint32_t idx, std::uint32_t level) const {
    return idx * cores_under(level);
  }

  /// Smallest 1-based cache level whose capacity is >= `words`; returns
  /// h() (the memory level) when no cache is large enough.
  std::uint32_t smallest_level_fitting(std::uint64_t words) const;

  const std::string& name() const { return name_; }
  const std::vector<LevelSpec>& levels() const { return levels_; }

  /// Checks all structural constraints of Section II; throws obliv::Error
  /// (derives std::invalid_argument) with a diagnostic on violation.
  void validate() const;

  /// Non-throwing validation: ErrorCode::kInvalidConfig for structural
  /// violations, kUnsupported for machines outside implementation limits
  /// (e.g. > 64 cores -- the coherence sharer set is a 64-bit bitmask).
  /// Fan-out products are checked in 64-bit with saturation, so absurd
  /// p_i values cannot wrap a 32-bit core count back into range.
  Status validate_status() const;

  /// One-line human-readable description (printed by bench headers).
  std::string describe() const;

  // ---- Presets used across tests, benches and examples. ----

  /// h=2: a single core with one cache -- the sequential cache-oblivious
  /// (ideal cache) model as a degenerate HM machine.
  static MachineConfig sequential(std::uint64_t capacity_words = 1 << 14,
                                  std::uint64_t block_words = 8);

  /// h=3: `cores` cores with private L1s sharing one L2 (the multicore model
  /// of Blelloch et al. [10] that HM extends).
  static MachineConfig shared_l2(std::uint32_t cores = 8);

  /// h=4: 16 cores, private L1, L2 shared by 4, one L3 shared by all.
  static MachineConfig three_level(std::uint32_t l2_fanin = 4,
                                   std::uint32_t l3_fanin = 4);

  /// h=5: the Figure-1 shape -- 8 cores, fanins (1, 2, 2, 2).
  static MachineConfig figure1();
  /// h=3: 4 cores with 256-word L1s sharing an 8192-word L2, so Theorem
  /// 5's n^2 >> C_i regime is reached at simulable sizes (with
  /// desktop-scale caches the matrix fits in L2 until n ~ 1024, where the
  /// n^3 simulation is impractical).
  static MachineConfig small_caches();

 private:
  std::string name_;
  std::vector<LevelSpec> levels_;
  std::vector<std::uint32_t> cores_under_;  // p'_i, 1-based via index i-1
  std::uint32_t cores_ = 1;
};

}  // namespace obliv::hm
