// Standalone ThreadSanitizer harness for the work-stealing scheduler.
//
// Built as `obliv_sched_tsan` with -fsanitize=thread applied to exactly this
// translation unit plus native_executor.cpp (everything else it touches is
// header-only), so the tier-1 ctest flow races the scheduler under TSan on
// every run without instrumenting the whole build.  Any data race aborts
// the process (halt_on_error) -- races fail loudly, not flakily.
//
// The scenarios mirror test_native_executor.cpp / test_sched_stress.cpp:
// deque-level churn, deep nested sb_parallel with concurrent cgc_pfor from
// sibling tasks, repeated root entries against sleeping workers, teardown
// under error (spawn failures injected mid-construction; destruction with
// workers asleep), the chaos scheduler racing a live fault plan, nested
// SB fork lists under wake-drop and pop-order plans, and the native
// SpM-DV and SPMS sort leaves on a 4-worker pool.
//
// The same file also builds as `obliv_sched_asan` (-fsanitize=address with
// leak detection: the teardown scenarios' "no thread / worker-state leak"
// half) and `obliv_sched_ubsan` (-fsanitize=undefined: UB sweep of the
// deque index arithmetic and the fault-plan PRNG).
//
// A full sanitizer build of the whole suite is available via
//   cmake -B build-tsan -S . -DOBLIV_SANITIZE=thread   (or address|undefined)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "fault/fault.hpp"
#include "sched/native_executor.hpp"
#include "sched/ws_deque.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void deque_churn() {
  obliv::sched::WsDeque<int*> dq(8);
  constexpr int kN = 50000;
  std::vector<int> vals(kN);
  std::atomic<long> sum{0};
  std::atomic<int> taken{0};
  for (int i = 0; i < kN; ++i) vals[i] = i;
  auto thief = [&] {
    for (;;) {
      if (int* p = dq.steal_top()) {
        sum.fetch_add(*p, std::memory_order_relaxed);
        taken.fetch_add(1, std::memory_order_acq_rel);
      } else if (taken.load(std::memory_order_acquire) == kN) {
        return;
      }
    }
  };
  std::thread t1(thief), t2(thief), t3(thief);
  int pushed = 0;
  while (pushed < kN) {
    for (int burst = 0; burst < 32 && pushed < kN; ++burst) {
      dq.push_bottom(&vals[pushed++]);
    }
    if (int* p = dq.pop_bottom()) {
      sum.fetch_add(*p, std::memory_order_relaxed);
      taken.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  while (taken.load(std::memory_order_acquire) != kN) {
    if (int* p = dq.pop_bottom()) {
      sum.fetch_add(*p, std::memory_order_relaxed);
      taken.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  t1.join();
  t2.join();
  t3.join();
  check(sum.load() == static_cast<long>(kN) * (kN - 1) / 2,
        "deque_churn: every element taken exactly once");
}

void nested_storm(obliv::sched::NativeExecutor& ex, std::uint64_t lo,
                  std::uint64_t hi, std::vector<std::atomic<int>>& hits) {
  if (hi - lo <= 4) {
    ex.cgc_pfor(lo, hi, 1, [&](std::uint64_t a, std::uint64_t b) {
      for (std::uint64_t k = a; k < b; ++k) {
        hits[k].fetch_add(1, std::memory_order_relaxed);
      }
    });
    return;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  const std::uint64_t space = (hi - lo) * 8;
  ex.sb_parallel({{space, [&] { nested_storm(ex, lo, mid, hits); }},
                  {space, [&] { nested_storm(ex, mid, hi, hits); }}});
}

void executor_storm() {
  obliv::sched::NativeExecutor ex(4, /*grain=*/1,
                                  obliv::sched::SchedMode::kWorkSteal);
  const std::uint64_t n = 1 << 11;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  nested_storm(ex, 0, n, hits);
  bool once = true;
  for (auto& h : hits) once = once && h.load() == 1;
  check(once, "executor_storm: every index hit exactly once");
}

void repeated_roots() {
  obliv::sched::NativeExecutor ex(8, /*grain=*/4,
                                  obliv::sched::SchedMode::kWorkSteal);
  std::uint64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::uint64_t> cnt{0};
    ex.cgc_pfor(0, 256, 1, [&](std::uint64_t a, std::uint64_t b) {
      cnt.fetch_add(b - a, std::memory_order_relaxed);
    });
    total += cnt.load();
  }
  check(total == 200ull * 256, "repeated_roots: no lost iterations");
}

// Teardown with workers still asleep: construct, (sometimes) run one tiny
// root, destroy immediately.  The destructor must wake every parked worker
// exactly once and join it -- a lost wake-up deadlocks here, a dropped join
// leaks the thread (caught by the ASan build of this binary).
void destroy_while_sleeping() {
  for (int round = 0; round < 50; ++round) {
    obliv::sched::NativeExecutor ex(8, /*grain=*/4,
                                    obliv::sched::SchedMode::kWorkSteal);
    if (round % 2 == 0) {
      std::atomic<int> cnt{0};
      obliv::sched::cgc_pfor_each(ex, 0, 16, 1, [&](std::uint64_t) {
        cnt.fetch_add(1, std::memory_order_relaxed);
      });
      check(cnt.load() == 16, "destroy_while_sleeping: root completed");
    }
    // ~NativeExecutor runs here with all workers parked in the idle wait.
  }
}

// Construction failure mid-spawn: an injected allocation storm makes the
// pool constructor throw after some worker threads are already running.
// The ctor's unwind path must stop and join them -- under TSan a missed
// join races the Worker state teardown, under ASan it leaks the thread and
// its deque, and a lost wake-up hangs this loop.
void failed_setup_teardown() {
  if (!obliv::fault::kFaultsCompiledIn) return;
  int failed = 0, built = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    obliv::fault::FaultPlan plan(
        seed, obliv::fault::FaultOptions::alloc_storm(20000));
    obliv::fault::ScopedFaultPlan scope(&plan);
    try {
      obliv::sched::NativeExecutor ex(4, /*grain=*/4,
                                      obliv::sched::SchedMode::kWorkSteal);
      ++built;
      obliv::fault::ScopedFaultPlan detach(nullptr);
      std::atomic<int> cnt{0};
      obliv::sched::cgc_pfor_each(ex, 0, 32, 1, [&](std::uint64_t) {
        cnt.fetch_add(1, std::memory_order_relaxed);
      });
      check(cnt.load() == 32, "failed_setup_teardown: surviving pool works");
    } catch (const std::bad_alloc&) {
      ++failed;
    }
  }
  check(failed > 0, "failed_setup_teardown: storm produced failures");
  (void)built;  // either outcome is legal per seed; both paths must be clean
}

// The chaos scheduler itself under the race detector: victim perturbation,
// pop-order inversion, stalls, and dropped wake-ups all execute on hot
// scheduler paths concurrently with real stealing.
void chaos_storm() {
  if (!obliv::fault::kFaultsCompiledIn) return;
  obliv::sched::NativeExecutor ex(4, /*grain=*/1,
                                  obliv::sched::SchedMode::kWorkSteal);
  obliv::fault::FaultPlan plan(99, obliv::fault::FaultOptions::chaos());
  ex.set_fault_plan(&plan);
  const std::uint64_t n = 1 << 10;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  nested_storm(ex, 0, n, hits);
  ex.set_fault_plan(nullptr);
  bool once = true;
  for (auto& h : hits) once = once && h.load() == 1;
  check(once, "chaos_storm: every index hit exactly once under chaos");
  check(plan.decisions() > 0, "chaos_storm: plan was consulted");
}

// One level of nested SB forks over [lo, hi): a braced list of 2, 4 or 8
// lambda temporaries (by depth), with space bounds mixing above- and
// below-grain tasks, so each list runs its first above-grain task inline,
// forks the later ones and runs the small ones on the forking core.  A
// thief runs a forked task through an FnRef into this frame's lambdas:
// ASan's use-after-scope and TSan check that every one is joined before
// the frame returns.
void fork_lists(obliv::sched::NativeExecutor& ex, std::uint64_t lo,
                std::uint64_t hi, int depth,
                std::vector<std::atomic<int>>& hits) {
  if (depth == 0 || hi - lo < 8) {
    for (std::uint64_t k = lo; k < hi; ++k) {
      hits[k].fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  constexpr std::uint64_t big = 1 << 20, small = 8;  // grain is 64
  const auto part = [&](std::uint64_t i, std::uint64_t parts) {
    const std::uint64_t len = hi - lo;
    fork_lists(ex, lo + len * i / parts, lo + len * (i + 1) / parts,
               depth - 1, hits);
  };
  switch (depth % 3) {
    case 0:
      ex.sb_parallel({{small, [&] { part(0, 2); }},
                      {big, [&] { part(1, 2); }}});
      break;
    case 1:
      ex.sb_parallel({{big, [&] { part(0, 4); }},
                      {small, [&] { part(1, 4); }},
                      {big, [&] { part(2, 4); }},
                      {big, [&] { part(3, 4); }}});
      break;
    default:
      ex.sb_parallel({{small, [&] { part(0, 8); }},
                      {big, [&] { part(1, 8); }},
                      {big, [&] { part(2, 8); }},
                      {small, [&] { part(3, 8); }},
                      {big, [&] { part(4, 8); }},
                      {small, [&] { part(5, 8); }},
                      {small, [&] { part(6, 8); }},
                      {big, [&] { part(7, 8); }}});
      break;
  }
}

// fork_lists on 4 workers under a plan that drops fork wake-ups and one
// that inverts the pop-vs-steal order.
void fork_list_storm() {
  using obliv::fault::InjectSite;
  for (InjectSite site : {InjectSite::kWakeDrop, InjectSite::kPopOrder}) {
    obliv::sched::NativeExecutor ex(4, /*grain=*/64,
                                    obliv::sched::SchedMode::kWorkSteal);
    obliv::fault::FaultOptions opts;
    opts.p[static_cast<std::size_t>(site)] = 32768;  // 50%
    obliv::fault::FaultPlan plan(7, opts);
    ex.set_fault_plan(&plan);
    const std::uint64_t n = 1 << 13;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    for (int depth = 5; depth <= 6; ++depth) fork_lists(ex, 0, n, depth, hits);
    ex.set_fault_plan(nullptr);
    bool twice = true;
    for (auto& h : hits) twice = twice && h.load() == 2;
    check(twice, "fork_list_storm: every index hit once per tree");
    check(!obliv::fault::kFaultsCompiledIn || plan.decisions() > 0,
          "fork_list_storm: plan was consulted");
  }
}

// Execute every SIMD kernel (vector and scalar paths) over exact-size
// heap buffers with unaligned starts and odd tails.  Under ASan a lane
// overread past n trips immediately; under UBSan any misaligned vector
// access or strict-aliasing violation does; the parity memcmp keeps the
// sweep honest (UBSan alone would pass on wrong-but-defined code).  This
// TU is compiled without -ffp-contract=off, so parity is checked between
// the two kernel TUs only -- both carry the flag (see src/CMakeLists.txt).
void simd_kernel_sweep() {
  namespace simd = obliv::simd;
  obliv::util::Xoshiro256 g(7);
  auto rd = [&] { return static_cast<double>(g() >> 11) * 0x1p-52 - 1.0; };
  auto eq = [](const void* a, const void* b, std::size_t bytes) {
    return bytes == 0 || std::memcmp(a, b, bytes) == 0;
  };
  bool parity = true;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{13}, std::size_t{67}}) {
    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      // pair_sum + scan_expand (f64 / u64)
      std::vector<double> ps(off + 2 * n), pd1(off + n), pd2(off + n);
      for (auto& x : ps) x = rd();
      simd::scalar::pair_sum_f64(ps.data() + off, pd1.data() + off, n);
      simd::vec::pair_sum_f64(ps.data() + off, pd2.data() + off, n);
      parity &= eq(pd1.data(), pd2.data(), pd1.size() * 8);
      std::vector<std::uint64_t> us(off + 2 * n), ud1(off + n), ud2(off + n);
      for (auto& x : us) x = g();
      simd::scalar::pair_sum_u64(us.data() + off, ud1.data() + off, n);
      simd::vec::pair_sum_u64(us.data() + off, ud2.data() + off, n);
      parity &= eq(ud1.data(), ud2.data(), ud1.size() * 8);
      if (n >= 1) {
        std::vector<double> t(n), v1(2 * n), v2(2 * n);
        for (auto& x : t) x = rd();
        for (std::size_t i = 0; i < 2 * n; ++i) v1[i] = v2[i] = rd();
        simd::scalar::scan_expand_f64(t.data(), v1.data(), 1, n);
        simd::vec::scan_expand_f64(t.data(), v2.data(), 1, n);
        parity &= eq(v1.data(), v2.data(), v1.size() * 8);
        std::vector<std::uint64_t> tu(n), w1(2 * n), w2(2 * n);
        for (auto& x : tu) x = g();
        for (std::size_t i = 0; i < 2 * n; ++i) w1[i] = w2[i] = g();
        simd::scalar::scan_expand_u64(tu.data(), w1.data(), 1, n);
        simd::vec::scan_expand_u64(tu.data(), w2.data(), 1, n);
        parity &= eq(w1.data(), w2.data(), w1.size() * 8);
      }
      // row updates (fw_min / gauss / axpy) + butterfly over the same shapes
      std::vector<double> y1(off + n), y2(off + n), row(off + n);
      for (std::size_t i = 0; i < off + n; ++i) {
        y1[i] = y2[i] = rd();
        row[i] = rd();
      }
      const double u = rd();
      simd::scalar::fw_min_f64(y1.data() + off, row.data() + off, u, n);
      simd::vec::fw_min_f64(y2.data() + off, row.data() + off, u, n);
      parity &= eq(y1.data(), y2.data(), y1.size() * 8);
      simd::scalar::gauss_update_f64(y1.data() + off, row.data() + off, u, n);
      simd::vec::gauss_update_f64(y2.data() + off, row.data() + off, u, n);
      parity &= eq(y1.data(), y2.data(), y1.size() * 8);
      simd::scalar::axpy_f64(y1.data() + off, row.data() + off, u, n);
      simd::vec::axpy_f64(y2.data() + off, row.data() + off, u, n);
      parity &= eq(y1.data(), y2.data(), y1.size() * 8);
      std::vector<double> ra1(n), ia1(n), rb1(n), ib1(n), wre(n), wim(n);
      for (std::size_t i = 0; i < n; ++i) {
        ra1[i] = rd(), ia1[i] = rd(), rb1[i] = rd(), ib1[i] = rd();
        wre[i] = rd(), wim[i] = rd();
      }
      auto ra2 = ra1, ia2 = ia1, rb2 = rb1, ib2 = ib1;
      simd::scalar::butterfly_f64(ra1.data(), ia1.data(), rb1.data(),
                                  ib1.data(), wre.data(), wim.data(), n);
      simd::vec::butterfly_f64(ra2.data(), ia2.data(), rb2.data(), ib2.data(),
                               wre.data(), wim.data(), n);
      parity &= eq(ra1.data(), ra2.data(), n * 8) &&
                eq(ib1.data(), ib2.data(), n * 8);
      // gathers + strided dot (stride 2 = interleaved AoS contract)
      const std::size_t bn = n ? n : 1;
      std::vector<double> base(2 * bn), g1(n), g2(n), h1(2 * n), h2(2 * n);
      for (auto& x : base) x = rd();
      std::vector<std::uint64_t> idx(n);
      for (auto& x : idx) x = g() % bn;
      simd::scalar::gather_f64(base.data(), idx.data(), g1.data(), n);
      simd::vec::gather_f64(base.data(), idx.data(), g2.data(), n);
      parity &= eq(g1.data(), g2.data(), n * 8);
      simd::scalar::gather_2f64(base.data(), idx.data(), h1.data(), n);
      simd::vec::gather_2f64(base.data(), idx.data(), h2.data(), n);
      parity &= eq(h1.data(), h2.data(), 2 * n * 8);
      struct Entry {
        std::uint64_t col;
        double val;
      };
      std::vector<Entry> ent(bn);
      for (auto& e : ent) e = {g() % bn, rd()};
      const double d1 = simd::scalar::dot_strided_f64(&ent[0].col, &ent[0].val,
                                                      2, base.data(), n);
      const double d2 =
          simd::vec::dot_strided_f64(&ent[0].col, &ent[0].val, 2, base.data(), n);
      parity &= eq(&d1, &d2, 8);
      // copy_bytes with a deliberately odd byte count
      std::vector<unsigned char> cs(off + 3 * n + 1), cd1(off + 3 * n + 1),
          cd2(off + 3 * n + 1);
      for (auto& x : cs) x = static_cast<unsigned char>(g());
      simd::scalar::copy_bytes(cs.data() + off, cd1.data() + off, 3 * n + 1);
      simd::vec::copy_bytes(cs.data() + off, cd2.data() + off, 3 * n + 1);
      parity &= eq(cd1.data(), cd2.data(), cd1.size());
    }
  }
  for (unsigned m : {1u, 2u, 4u, 8u}) {
    std::vector<double> re(m), im(m), r1(m), i1(m), r2(m), i2(m);
    for (unsigned i = 0; i < m; ++i) re[i] = rd(), im[i] = rd();
    simd::scalar::dft_pow2_f64(re.data(), im.data(), r1.data(), i1.data(), m);
    simd::vec::dft_pow2_f64(re.data(), im.data(), r2.data(), i2.data(), m);
    parity &= eq(r1.data(), r2.data(), m * 8) && eq(i1.data(), i2.data(), m * 8);
  }
  // 2-D tile kernels on exact-size operands: each buffer ends at its tile's
  // last element, so a read or write past a row edge is an overflow.
  for (std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{6}, std::size_t{9}}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                          std::size_t{13}}) {
      for (std::size_t k : {std::size_t{1}, std::size_t{7}}) {
        const std::size_t ld = 16;
        std::vector<double> y1((m - 1) * ld + n), u((m - 1) * ld + k),
            v((k - 1) * ld + n);
        for (auto& x : y1) x = rd();
        for (auto& x : u) x = rd();
        for (auto& x : v) x = rd();
        auto y2 = y1;
        simd::scalar::tile_matmul_f64(y1.data(), ld, u.data(), ld, v.data(),
                                      ld, m, n, k);
        simd::vec::tile_matmul_f64(y2.data(), ld, u.data(), ld, v.data(), ld,
                                   m, n, k);
        parity &= eq(y1.data(), y2.data(), y1.size() * 8);
        simd::scalar::tile_minplus_f64(y1.data(), ld, u.data(), ld, v.data(),
                                       ld, m, n, k);
        simd::vec::tile_minplus_f64(y2.data(), ld, u.data(), ld, v.data(), ld,
                                    m, n, k);
        parity &= eq(y1.data(), y2.data(), y1.size() * 8);
      }
    }
  }
  check(parity, "simd_kernel_sweep: vec/scalar parity");
}

// Native leaves at 4 workers over exact-size heap buffers, grain 64 so
// that every range above a leaf forks.  SpM-DV row blocks write disjoint
// ranges of y from different workers (TSan), and no row range may read
// past A_v or A_0 (ASan).  SPMS sort patterns take the leaf, the in-order
// shortcut (equal-key buckets, sorted input) and the full recursion.
void native_leaf_sweep() {
  namespace algo = obliv::algo;
  namespace sched = obliv::sched;
  obliv::util::Xoshiro256 g(11);
  sched::NativeExecutor ex1(1), ex4(4, /*grain=*/64,
                                    sched::SchedMode::kWorkSteal);
  // Rows of 0..11 nonzeros (serial loop and strided dot kernel) and one
  // row wider than the leaf.
  const std::uint64_t n = 4096;
  std::vector<std::uint64_t> a0(n + 1, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    a0[i + 1] = a0[i] + (i == n / 3 ? 1500 : i % 12);
  }
  std::vector<algo::SpmEntry> av(a0[n]);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t len = a0[i + 1] - a0[i];
    for (std::uint64_t t = 0; t < len; ++t) {
      av[a0[i] + t] = {t * n / len + g() % (n / len), 1.0 / (1 + g() % 7)};
    }
  }
  std::vector<double> x(n), y1(n), y4(n);
  for (auto& v : x) v = static_cast<double>(g() % 1000) / 7;
  auto spmdv = [&](sched::NativeExecutor& ex, std::vector<double>& y) {
    algo::mo_spmdv(ex, sched::NatRef<algo::SpmEntry>(av.data(), av.size()),
                   sched::NatRef<std::uint64_t>(a0.data(), a0.size()),
                   sched::NatRef<double>(x.data(), n),
                   sched::NatRef<double>(y.data(), n));
  };
  spmdv(ex1, y1);
  spmdv(ex4, y4);
  check(std::memcmp(y1.data(), y4.data(), n * sizeof(double)) == 0,
        "native_leaf_sweep: spmdv 4 workers == 1 worker");
  const std::uint64_t m = 1 << 15;
  for (int p = 0; p < 4; ++p) {
    std::vector<std::uint64_t> keys(m);
    for (std::uint64_t i = 0; i < m; ++i) {
      keys[i] = p == 0 ? g() : p == 1 ? g() % 64 : p == 2 ? i : m - i;
    }
    std::vector<std::uint64_t> want = keys;
    std::sort(want.begin(), want.end());
    algo::spms_sort(ex4, sched::NatRef<std::uint64_t>(keys.data(), m));
    check(keys == want, "native_leaf_sweep: spms_sort at 4 workers");
  }
}

}  // namespace

int main() {
  deque_churn();
  executor_storm();
  repeated_roots();
  destroy_while_sleeping();
  failed_setup_teardown();
  chaos_storm();
  fork_list_storm();
  simd_kernel_sweep();
  native_leaf_sweep();
  if (failures == 0) std::printf("obliv_sched_tsan: all scenarios passed\n");
  return failures == 0 ? 0 : 1;
}
