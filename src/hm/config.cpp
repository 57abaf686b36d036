#include "hm/config.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "util/bits.hpp"

namespace obliv::hm {

namespace {

/// Saturating product of the fan-ins of levels[0..i]; absurd fan-outs must
/// not wrap a 32-bit accumulator back into the accepted range (a 2^16 x
/// 2^16 fan-out pair used to alias to 0 cores and slip past validation).
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

}  // namespace

MachineConfig::MachineConfig(std::string name, std::vector<LevelSpec> levels)
    : name_(std::move(name)), levels_(std::move(levels)) {
  validate_status().throw_if_error();
  // Post-validation the fan-in product is <= 64, so 32-bit arithmetic below
  // is exact.
  cores_under_.resize(levels_.size());
  std::uint32_t acc = 1;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    acc *= levels_[i].fanin;
    cores_under_[i] = acc;
  }
  cores_ = levels_.empty() ? 1 : cores_under_.back();
}

Result<MachineConfig> MachineConfig::make(std::string name,
                                          std::vector<LevelSpec> levels)
    noexcept {
  try {
    return MachineConfig(std::move(name), std::move(levels));
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::bad_alloc&) {
    return Status::error(ErrorCode::kResourceExhausted,
                         "allocation failed while building MachineConfig");
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what());
  }
}

std::uint32_t MachineConfig::caches_at(std::uint32_t level) const {
  return cores_ / cores_under(level);
}

std::uint32_t MachineConfig::cores_under(std::uint32_t level) const {
  return cores_under_.at(level - 1);
}

std::uint32_t MachineConfig::smallest_level_fitting(std::uint64_t words) const {
  for (std::uint32_t i = 1; i <= cache_levels(); ++i) {
    if (capacity(i) >= words) return i;
  }
  return h();
}

void MachineConfig::validate() const { validate_status().throw_if_error(); }

Status MachineConfig::validate_status() const {
  auto fail = [&](ErrorCode code, const std::string& msg) {
    return Status::error(code, "MachineConfig '" + name_ + "': " + msg);
  };
  if (levels_.empty()) {
    return fail(ErrorCode::kInvalidConfig,
                "at least one cache level is required");
  }
  if (levels_.front().fanin != 1) {
    return fail(ErrorCode::kInvalidConfig,
                "p_1 must be 1 (private L1 per core)");
  }
  std::uint64_t cores = 1;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const LevelSpec& lv = levels_[i];
    std::ostringstream at;
    at << "level " << (i + 1) << ": ";
    if (lv.fanin == 0) {
      return fail(ErrorCode::kInvalidConfig, at.str() + "fanin must be positive");
    }
    cores = sat_mul(cores, lv.fanin);
    if (lv.capacity_words == 0 || lv.block_words == 0) {
      return fail(ErrorCode::kInvalidConfig,
                  at.str() + "capacity and block size must be positive");
    }
    if (lv.block_words > lv.capacity_words) {
      return fail(ErrorCode::kInvalidConfig, at.str() + "block larger than cache");
    }
    if (lv.capacity_words / lv.block_words < lv.block_words) {
      // Division form of C_i >= B_i^2: immune to B_i^2 overflowing 64 bits.
      return fail(ErrorCode::kInvalidConfig,
                  at.str() + "tall-cache assumption C_i >= B_i^2 violated");
    }
    if (i > 0) {
      const LevelSpec& below = levels_[i - 1];
      // C_i >= c_i * p_i * C_{i-1} with c_i >= 1 (the paper's inclusivity /
      // cache-growth constraint), checked with a saturating product so huge
      // fan-ins cannot wrap past it.
      if (lv.capacity_words <
          sat_mul(lv.fanin, below.capacity_words)) {
        return fail(ErrorCode::kInvalidConfig,
                    at.str() +
                        "cache growth constraint C_i >= p_i * C_{i-1} violated");
      }
      if (lv.block_words < below.block_words) {
        return fail(ErrorCode::kInvalidConfig,
                    at.str() + "block sizes must be non-decreasing with level");
      }
    }
  }
  if (cores > 64) {
    // The coherence model keeps one 64-bit sharer bitmask per B_1 block
    // (hm/cache_sim.hpp); silently aliasing core 64 onto core 0 would
    // corrupt ping-pong and invalidation counts.
    std::ostringstream p;
    if (cores == std::numeric_limits<std::uint64_t>::max()) {
      p << "> 2^64";
    } else {
      p << cores;
    }
    return fail(ErrorCode::kUnsupported,
                "more than 64 cores is unsupported: the coherence sharer set "
                "is a 64-bit bitmask (got p = " + p.str() + ")");
  }
  return Status();
}

std::string MachineConfig::describe() const {
  std::ostringstream os;
  os << name_ << ": h=" << h() << ", p=" << cores();
  for (std::uint32_t i = 1; i <= cache_levels(); ++i) {
    os << " | L" << i << " q=" << caches_at(i) << " C=" << capacity(i)
       << "w B=" << block(i) << "w";
  }
  return os.str();
}

MachineConfig MachineConfig::sequential(std::uint64_t capacity_words,
                                        std::uint64_t block_words) {
  return MachineConfig("sequential",
                       {LevelSpec{capacity_words, block_words, 1}});
}

MachineConfig MachineConfig::shared_l2(std::uint32_t cores) {
  // L1: 2K words (16 KiB of doubles) private; L2: grows with core count so
  // the C_2 >= p_2 C_1 constraint holds with headroom (c_2 = 16).
  const std::uint64_t c1 = 2048, b1 = 8;
  const std::uint64_t c2 = 16ull * cores * c1, b2 = 16;
  return MachineConfig("shared_l2",
                       {LevelSpec{c1, b1, 1}, LevelSpec{c2, b2, cores}});
}

MachineConfig MachineConfig::three_level(std::uint32_t l2_fanin,
                                         std::uint32_t l3_fanin) {
  const std::uint64_t c1 = 1024, b1 = 8;
  const std::uint64_t c2 = 8ull * l2_fanin * c1, b2 = 16;
  const std::uint64_t c3 = 8ull * l3_fanin * c2, b3 = 16;
  return MachineConfig("three_level", {LevelSpec{c1, b1, 1},
                                       LevelSpec{c2, b2, l2_fanin},
                                       LevelSpec{c3, b3, l3_fanin}});
}

MachineConfig MachineConfig::figure1() {
  // The h=5 machine sketched in Figure 1: fanins (1, 2, 2, 2) -> 8 cores.
  const std::uint64_t b = 8;
  return MachineConfig("figure1", {LevelSpec{512, b, 1},
                                   LevelSpec{4096, b, 2},
                                   LevelSpec{32768, 16, 2},
                                   LevelSpec{262144, 16, 2}});
}

MachineConfig MachineConfig::small_caches() {
  return MachineConfig("small_caches",
                       {LevelSpec{256, 8, 1}, LevelSpec{8192, 16, 4}});
}

}  // namespace obliv::hm
