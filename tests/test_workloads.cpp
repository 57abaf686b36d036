// Differential test over the workload registry (workload/workloads.hpp): every
// kind on every execution path that can run it, at edge sizes.
//
// Paths: the simulator (shared_l2(4)), the native executor at 1 and 4
// workers under both simd::Mode::kAuto and kScalar, and a serve::Server
// (the seven served kinds).  Every output must pass the kind's serial
// reference check, the native paths must agree bit for bit, and the
// simulator must match them bit for bit too -- except spmdv, whose native
// leaf kernel sums rows in another order than the simulator's generic
// loop, so there the two agree within 1e-12.
#include "workload/workloads.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "hm/config.hpp"
#include "serve/serve.hpp"
#include "util/simd.hpp"

namespace obliv::workload {

// Test names and failure messages print the kind's name.
void PrintTo(Kind k, std::ostream* os) { *os << name(k); }

namespace {

using Native = Instance<sched::NativeExecutor>;
using Sim = Instance<sched::SimExecutor>;

/// n in {0, 1, 2, 3, 5, 8, 17}, each replaced by the nearest size the kind
/// takes (ties upward) where it takes no other.  The kinds with a native
/// leaf (sched::kNativeLeafWords) add one size above it, so every native
/// path also runs the recursion, or the CGC pass over leaves, above it.
std::vector<std::uint64_t> edge_sizes(Kind k) {
  std::vector<std::uint64_t> out;
  for (const std::uint64_t want : {0, 1, 2, 3, 5, 8, 17}) {
    std::uint64_t n = want;
    for (std::uint64_t d = 1; !size_ok(k, n); ++d) {
      n = size_ok(k, want + d) ? want + d : want - d;
    }
    if (out.empty() || out.back() != n) out.push_back(n);
  }
  switch (k) {
    case Kind::kScan: out.push_back(10243); break;  // 5 blocks and a tail
    case Kind::kSort: out.push_back(2053); break;
    case Kind::kFft: out.push_back(2048); break;
    case Kind::kTranspose: out.push_back(128); break;  // 16 tiles
    case Kind::kListRank: out.push_back(701); break;  // 3-word records
    default: break;
  }
  return out;
}

bool bits_equal(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Outputs of spmdv as doubles, equal within 1e-12 relative.
bool doubles_close(std::span<const std::byte> a, std::span<const std::byte> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); i += sizeof(double)) {
    double x, y;
    std::memcpy(&x, a.data() + i, sizeof x);
    std::memcpy(&y, b.data() + i, sizeof y);
    if (std::abs(x - y) > 1e-12 * std::max(1.0, std::abs(y))) return false;
  }
  return true;
}

class Registry : public ::testing::TestWithParam<Kind> {};

TEST_P(Registry, EveryPathPassesTheReferenceAndAgrees) {
  const Kind k = GetParam();
  sched::NativeExecutor one(1);
  // Grain 1: even the 17-element inputs fork.
  sched::NativeExecutor four(4, 1);
  serve::ServerOptions so;
  so.threads = 4;
  serve::Server srv(so);
  for (const std::uint64_t n : edge_sizes(k)) {
    SCOPED_TRACE(std::string(name(k)) + " n=" + std::to_string(n));
    const std::uint64_t seed = 1000 + n;

    Native base(one, k, n, seed);
    base.run(one);
    EXPECT_TRUE(base.check());

    Native wide(four, k, n, seed);
    wide.run(four);
    EXPECT_TRUE(wide.check());
    EXPECT_TRUE(bits_equal(base.output(), wide.output())) << "4 workers";

    // SIMD axis: the scalar kernels (what an OBLIV_SIMD=OFF build runs)
    // reproduce the default vector dispatch bit for bit, for every kind.
    {
      simd::ScopedMode scalar(simd::Mode::kScalar);
      Native s1(one, k, n, seed);
      s1.run(one);
      EXPECT_TRUE(bits_equal(base.output(), s1.output())) << "kScalar";
      Native s4(four, k, n, seed);
      s4.run(four);
      EXPECT_TRUE(bits_equal(base.output(), s4.output()))
          << "kScalar, 4 workers";
    }

    sched::SimExecutor ex(hm::MachineConfig::shared_l2(4));
    Sim sim(ex, k, n, seed);
    sim.run(ex);
    EXPECT_TRUE(sim.check());
    EXPECT_TRUE(k == Kind::kSpmdv ? doubles_close(sim.output(), base.output())
                                  : bits_equal(sim.output(), base.output()))
        << "simulator";

    if (served(k)) {
      Native job(one, k, n, seed);
      auto h = srv.submit(job.request());
      ASSERT_TRUE(h.ok()) << h.status().message();
      EXPECT_TRUE(h.value().wait().ok());
      EXPECT_TRUE(job.check());
      EXPECT_TRUE(bits_equal(base.output(), job.output())) << "served";
    }
  }
}

TEST_P(Registry, ResetRestoresTheInput) {
  const Kind k = GetParam();
  sched::NativeExecutor ex(2);
  const std::uint64_t n = size_ok(k, 24) ? 24 : 32;
  Native a(ex, k, n, 7);
  a.run(ex);
  const std::vector<std::byte> first(a.output().begin(), a.output().end());
  a.reset();
  a.run(ex);
  EXPECT_TRUE(a.check());
  EXPECT_TRUE(bits_equal(first, a.output()));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, Registry, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<Kind>& param_info) {
      return std::string(name(param_info.param));
    });

TEST(RegistrySizes, UnsupportedSizesThrowInvalidArgument) {
  sched::SimExecutor ex(hm::MachineConfig::shared_l2(4));
  for (const auto& [k, n] : {std::pair<Kind, std::uint64_t>{Kind::kFft, 1000},
                             {Kind::kTranspose, 48},
                             {Kind::kMatmul, 17},
                             {Kind::kGep, 18},
                             {Kind::kGep, std::uint64_t{1} << 32}}) {
    try {
      Sim in(ex, k, n, 1);
      ADD_FAILURE() << name(k) << " accepted n=" << n;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    }
  }
  EXPECT_TRUE(size_ok(Kind::kGep, 48));
  EXPECT_TRUE(size_ok(Kind::kMatmul, 5));
  EXPECT_TRUE(size_ok(Kind::kFft, 0));
}

TEST(RegistrySizes, ServeEstimateIsTheSpaceBound) {
  sched::NativeExecutor ex(1);
  for (const Kind k : kAllKinds) {
    if (!served(k)) continue;
    for (const std::uint64_t n : {0, 4, 16}) {
      Native in(ex, k, n, 1);
      EXPECT_EQ(serve::space_estimate_words(in.request()), in.space());
      EXPECT_EQ(serve::family_name(serve::family_of(in.request())), name(k));
    }
  }
}

TEST(RegistrySizes, SpaceWordsPerKind) {
  const std::uint64_t expect[kKinds] = {20, 40, 60, 300, 100, 80, 50, 400};
  for (const Kind k : kAllKinds) {
    EXPECT_EQ(space_words(k, 10, 5), expect[static_cast<std::size_t>(k)])
        << name(k);
  }
}

}  // namespace
}  // namespace obliv::workload
