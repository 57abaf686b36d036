#include "hm/trace.hpp"

#include <cstdlib>
#include <cstring>
#include <thread>

namespace obliv::hm {

PsimMode resolve_psim_mode(PsimMode requested) {
  if (requested != PsimMode::kAuto) return requested;
  if (const char* env = std::getenv("OBLIV_PSIM")) {
    if (std::strcmp(env, "sharded") == 0) return PsimMode::kSharded;
    if (std::strcmp(env, "serial") == 0) return PsimMode::kSerial;
    // Unrecognized values fall through to the default.
  }
  // Serial on every host: on 4 cores the sharded replay ran the Table II
  // traces at about half the serial engine's rate (EXPERIMENTS.md,
  // "Default engine").
  return PsimMode::kSerial;
}

unsigned psim_threads_from_env() {
  if (const char* env = std::getenv("OBLIV_PSIM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::uint64_t psim_seed_from_env(std::uint64_t fallback) {
  if (const char* env = std::getenv("OBLIV_PSIM_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return fallback;
}

}  // namespace obliv::hm
