// Parallel constructs really run in parallel: every algorithm family, on a
// 4-worker work-stealing pool, must get at least one of its tasks stolen.
//
// Checked by counters, not by timing: an obs::Tracer with events disabled
// still records the `sched.steal.scan_ns` histogram, one sample per
// successful steal.  A family whose fork structure never exposes work
// (e.g. a binary CGC=>SB recursion whose two-subtask loops never split)
// runs entirely on the calling thread and records zero steals, however
// fast it is.  Thieves start parked, so a run may finish before any of
// them wakes; a bounded number of repetitions absorbs that.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"

namespace obliv {
namespace {

using sched::NativeExecutor;
using sched::NatRef;

template <class T>
NatRef<T> ref_of(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

/// One family: `make` allocates its input once and returns a run that
/// (re)fills it and executes the algorithm on `ex`.
struct Family {
  std::string name;
  std::function<std::function<void()>(NativeExecutor&)> make;
};

std::vector<Family> families() {
  std::vector<Family> f;
  f.push_back({"scan", [](NativeExecutor& ex) {
                 auto v = std::make_shared<std::vector<std::uint64_t>>(1 << 18);
                 return std::function<void()>([&ex, v] {
                   std::iota(v->begin(), v->end(), 0);
                   algo::mo_prefix_sum(ex, ref_of(*v));
                 });
               }});
  f.push_back({"sort", [](NativeExecutor& ex) {
                 auto v = std::make_shared<std::vector<std::uint64_t>>(1 << 15);
                 return std::function<void()>([&ex, v] {
                   util::Xoshiro256 rng(1);
                   for (auto& x : *v) x = rng();
                   algo::spms_sort(ex, ref_of(*v));
                 });
               }});
  f.push_back({"fft", [](NativeExecutor& ex) {
                 auto v = std::make_shared<std::vector<algo::cplx>>(1 << 14);
                 return std::function<void()>([&ex, v] {
                   util::Xoshiro256 rng(2);
                   for (auto& x : *v) x = algo::cplx(rng.uniform(), 0.0);
                   algo::mo_fft(ex, ref_of(*v));
                 });
               }});
  f.push_back({"transpose", [](NativeExecutor& ex) {
                 const std::uint64_t n = 256;
                 auto in = std::make_shared<std::vector<double>>(n * n, 1.0);
                 auto out = std::make_shared<std::vector<double>>(n * n);
                 return std::function<void()>([&ex, in, out, n] {
                   algo::mo_transpose(ex, ref_of(*in), ref_of(*out), n);
                 });
               }});
  f.push_back({"gep", [](NativeExecutor& ex) {
                 const std::uint64_t n = 128;
                 auto m = std::make_shared<std::vector<double>>(n * n);
                 return std::function<void()>([&ex, m, n] {
                   util::Xoshiro256 rng(3);
                   for (auto& x : *m) x = rng.uniform() + 0.01;
                   using Mat = sched::MatView<NatRef<double>>;
                   algo::igep<algo::FloydWarshallInstance>(
                       ex, Mat::full(ref_of(*m), n, n));
                 });
               }});
  f.push_back({"listrank", [](NativeExecutor& ex) {
                 const std::uint64_t n = 1 << 15;
                 std::vector<std::uint64_t> perm(n);
                 std::iota(perm.begin(), perm.end(), 0);
                 util::Xoshiro256 rng(4);
                 for (std::uint64_t i = n; i > 1; --i) {
                   std::swap(perm[i - 1], perm[rng.below(i)]);
                 }
                 auto succ = std::make_shared<std::vector<std::uint64_t>>(
                     n, algo::kNil);
                 auto pred = std::make_shared<std::vector<std::uint64_t>>(
                     n, algo::kNil);
                 auto dist = std::make_shared<std::vector<std::uint64_t>>(n);
                 for (std::uint64_t t = 0; t + 1 < n; ++t) {
                   (*succ)[perm[t]] = perm[t + 1];
                   (*pred)[perm[t + 1]] = perm[t];
                 }
                 return std::function<void()>([&ex, succ, pred, dist] {
                   algo::mo_list_rank(ex, ref_of(*succ), ref_of(*pred),
                                      ref_of(*dist));
                 });
               }});
  f.push_back({"spmdv", [](NativeExecutor& ex) {
                 auto m = std::make_shared<algo::SparseMatrix>(
                     algo::grid_matrix_reordered(128));
                 auto x = std::make_shared<std::vector<double>>(m->n, 1.0);
                 auto y = std::make_shared<std::vector<double>>(m->n);
                 return std::function<void()>([&ex, m, x, y] {
                   algo::mo_spmdv(ex, ref_of(m->av), ref_of(m->a0), ref_of(*x),
                                  ref_of(*y));
                 });
               }});
  return f;
}

class FamilyParallelism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FamilyParallelism, TasksAreStolenOnFourWorkers) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs a multi-core host";
  }
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "steal histogram compiled out (OBLIV_TRACING=OFF)";
  }
  const Family fam = families()[GetParam()];
  NativeExecutor ex(4, 1 << 12, sched::SchedMode::kWorkSteal);
  obs::Tracer tracer(4);
  tracer.set_events_enabled(false);
  ex.set_tracer(&tracer);
  const obs::Histogram& steals =
      tracer.counters().histogram("sched.steal.scan_ns");
  auto run = fam.make(ex);
  constexpr int kMaxRuns = 50;
  int runs = 0;
  while (steals.count() == 0 && runs < kMaxRuns) {
    run();
    ++runs;
  }
  ex.set_tracer(nullptr);
  EXPECT_GE(steals.count(), 1u)
      << fam.name << " ran " << runs
      << " times on 4 workers without a single steal: its parallel "
         "constructs never exposed work";
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyParallelism, ::testing::Range<std::size_t>(0, 7),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      return families()[param_info.param].name;
    });

}  // namespace
}  // namespace obliv
