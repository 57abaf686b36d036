// The workload registry: the paper's algorithm families (the seven served
// families plus recursive matmul) as problem instances shared by the
// tests, the benches and obliv-trace.
//
// kinds.hpp holds each family's name, SB space bound S(n) (space_words:
// the simulator's anchoring argument and the server's admission estimate)
// and size rule (size_ok).  Instance adds, once per family, a
// deterministic input generator, the call and a serial reference check.
//
// Instance<Exec> works on any executor with make_buf: SimExecutor runs the
// call under ex.run(space_words(...)), NativeExecutor runs it directly and
// can also hand it to a serve::Server as a typed request.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "fault/status.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "workload/kinds.hpp"

namespace obliv::workload {

static_assert(int(Kind::kScan) == int(serve::Family::kScan) &&
                  int(Kind::kSort) == int(serve::Family::kSort) &&
                  int(Kind::kFft) == int(serve::Family::kFft) &&
                  int(Kind::kTranspose) == int(serve::Family::kTranspose) &&
                  int(Kind::kGep) == int(serve::Family::kGep) &&
                  int(Kind::kListRank) == int(serve::Family::kListRank) &&
                  int(Kind::kSpmdv) == int(serve::Family::kSpmdv) &&
                  kKinds == serve::kFamilies + 1,
              "Kind must extend serve::Family value for value");

/// A problem instance whose input is a pure function of (kind, n, seed):
///   scan       n int64 in [-500, 500), plus an n-word scratch
///   sort       n uint64 keys, Xoshiro256(seed)()
///   fft        n complex, both parts in [-0.5, 0.5)
///   transpose  n x n doubles in [0, 1) into an n x n output
///   gep        n x n Floyd-Warshall weights in [1, 1000), zero diagonal
///   listrank   a list of n nodes in random_list_order(n, rng)
///   spmdv      grid_matrix_reordered(n) (n^2 rows) times x in [-0.5, 0.5)
///   matmul     n x n times n x n, entries in [0, 1)
/// Buffers come from ex.make_buf, allocated once in the order listed above
/// (scan data, scratch; transpose in, out; listrank succ, pred, dist; spmdv
/// av, a0, x, y; matmul c, a, b), so no run allocates.  reset() regenerates
/// the input, so an instance can run any number of times.
///
/// The floating-point inputs are not integers on purpose: a schedule that
/// changed the order of a sum would change the output bits, so comparing
/// output() across executors, thread counts and fault plans checks that
/// the result is schedule-independent.  check() compares with a serial
/// reference whose summation order differs: exactly for scan, sort,
/// transpose and listrank, within 1e-9 x max|X| for fft (the iterative
/// FFT) and within 1e-12 relative for gep, spmdv and matmul.
template <class Exec>
class Instance {
  static constexpr bool kSim = std::is_same_v<Exec, sched::SimExecutor>;
  static constexpr bool kNative = std::is_same_v<Exec, sched::NativeExecutor>;
  template <class T>
  using Buf = decltype(std::declval<Exec&>().template make_buf<T>(0));

 public:
  /// Throws Error(kInvalidArgument) when size_ok(kind, n) is false.
  /// The executor only allocates: the buffers outlive it, and run() takes
  /// the executor to run on.
  Instance(Exec& ex, Kind kind, std::uint64_t n, std::uint64_t seed)
      : kind_(kind), n_(n), seed_(seed) {
    if (!size_ok(kind, n)) {
      throw Error(ErrorCode::kInvalidArgument,
                  std::string(name(kind)) + ": unsupported size " +
                      std::to_string(n) +
                      " (fft length, transpose side: a power of two; gep, "
                      "matmul side: halves evenly down to 8; sides < 2^32)");
    }
    switch (kind) {
      case Kind::kScan:
        i64_ = ex.template make_buf<std::int64_t>(n);
        scratch_ = ex.template make_buf<std::int64_t>(n);
        break;
      case Kind::kSort: keys_ = ex.template make_buf<std::uint64_t>(n); break;
      case Kind::kFft: cx_ = ex.template make_buf<algo::cplx>(n); break;
      case Kind::kTranspose:
        a_ = ex.template make_buf<double>(n * n);
        b_ = ex.template make_buf<double>(n * n);
        break;
      case Kind::kGep: a_ = ex.template make_buf<double>(n * n); break;
      case Kind::kListRank:
        succ_ = ex.template make_buf<std::uint64_t>(n);
        pred_ = ex.template make_buf<std::uint64_t>(n);
        dist_ = ex.template make_buf<std::uint64_t>(n);
        break;
      case Kind::kSpmdv: {
        algo::SparseMatrix m = algo::grid_matrix_reordered(n);
        av_ = ex.template make_buf<algo::SpmEntry>(m.nnz());
        a0_ = ex.template make_buf<std::uint64_t>(m.n + 1);
        a_ = ex.template make_buf<double>(m.n);
        b_ = ex.template make_buf<double>(m.n);
        av_.raw() = std::move(m.av);
        a0_.raw() = std::move(m.a0);
        break;
      }
      case Kind::kMatmul:
        c_ = ex.template make_buf<double>(n * n);
        a_ = ex.template make_buf<double>(n * n);
        b_ = ex.template make_buf<double>(n * n);
        break;
    }
    reset();
  }

  // Movable, not copyable: a copy of a simulator instance would share its
  // simulated addresses.
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  Kind kind() const { return kind_; }

  /// The first argument of space_words for this instance.
  std::uint64_t size() const {
    return kind_ == Kind::kSpmdv ? b_.size() : n_;
  }
  /// S(n) of this instance.
  std::uint64_t space() const { return space_words(kind_, size(), av_.size()); }

  /// Restores the input and clears the output.
  void reset() {
    util::Xoshiro256 rng(seed_);
    switch (kind_) {
      case Kind::kScan: fill_scan(i64_.raw(), rng); break;
      case Kind::kSort: fill_keys(keys_.raw(), rng); break;
      case Kind::kFft: fill_cplx(cx_.raw(), rng); break;
      case Kind::kTranspose:
        for (auto& v : a_.raw()) v = rng.uniform();
        std::fill(b_.raw().begin(), b_.raw().end(), 0.0);
        break;
      case Kind::kGep: fill_weights(a_.raw(), n_, rng); break;
      case Kind::kListRank:
        algo::link_list(algo::random_list_order(n_, rng), succ_.raw(),
                        pred_.raw());
        std::fill(dist_.raw().begin(), dist_.raw().end(), 0);
        break;
      case Kind::kSpmdv:
        fill_x(a_.raw(), rng);
        std::fill(b_.raw().begin(), b_.raw().end(), 0.0);
        break;
      case Kind::kMatmul:
        fill_unit(a_.raw(), b_.raw(), rng);
        std::fill(c_.raw().begin(), c_.raw().end(), 0.0);
        break;
    }
  }

  /// The family's call on `ex`.  On the simulator `ex` must be the
  /// executor that allocated the instance; the call runs as one ex.run
  /// with S(n) as the space bound and returns its RunMetrics.  Native
  /// buffers are plain memory, so any pool can run them.  An empty
  /// instance calls nothing, as the server does for zero-size requests.
  auto run(Exec& ex) {
    if constexpr (kSim) {
      return ex.run(space(), [&] { call(ex); });
    } else {
      call(ex);
    }
  }

  /// The same call as a server request (every kind but kMatmul).
  serve::Request request()
    requires kNative
  {
    switch (kind_) {
      case Kind::kScan: return serve::ScanRequest{i64_.ref()};
      case Kind::kSort: return serve::SortRequest{keys_.ref()};
      case Kind::kFft: return serve::FftRequest{cx_.ref()};
      case Kind::kTranspose:
        return serve::TransposeRequest{a_.ref(), b_.ref(), n_};
      case Kind::kGep: return serve::GepRequest{a_.ref(), n_};
      case Kind::kListRank:
        return serve::ListRankRequest{succ_.ref(), pred_.ref(), dist_.ref()};
      case Kind::kSpmdv:
        return serve::SpmdvRequest{av_.ref(), a0_.ref(), a_.ref(), b_.ref()};
      case Kind::kMatmul: break;
    }
    throw Error(ErrorCode::kInvalidArgument, "matmul is not a served family");
  }

  /// The output buffer's bytes, for bitwise comparison across executors.
  std::span<const std::byte> output() const {
    switch (kind_) {
      case Kind::kScan: return bytes(i64_);
      case Kind::kSort: return bytes(keys_);
      case Kind::kFft: return bytes(cx_);
      case Kind::kTranspose:
      case Kind::kSpmdv: return bytes(b_);
      case Kind::kGep: return bytes(a_);
      case Kind::kListRank: return bytes(dist_);
      case Kind::kMatmul: return bytes(c_);
    }
    return {};
  }

  /// Whether the output matches a serial reference computed from a freshly
  /// generated input (see the class comment for the tolerances).
  bool check() const {
    util::Xoshiro256 rng(seed_);
    const std::uint64_t n = n_;
    switch (kind_) {
      case Kind::kScan: {
        std::vector<std::int64_t> ref(n);
        fill_scan(ref, rng);
        std::partial_sum(ref.begin(), ref.end(), ref.begin());
        return ref == i64_.raw();
      }
      case Kind::kSort: {
        std::vector<std::uint64_t> ref(n);
        fill_keys(ref, rng);
        std::sort(ref.begin(), ref.end());
        return ref == keys_.raw();
      }
      case Kind::kFft: {
        if (n == 0) return true;
        std::vector<algo::cplx> ref(n);
        fill_cplx(ref, rng);
        sched::NativeExecutor serial(1);
        algo::iterative_fft(serial, sched::NatRef<algo::cplx>(ref.data(), n));
        double err = 0, mag = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          err = std::max(err, std::abs(cx_.raw()[i] - ref[i]));
          mag = std::max(mag, std::abs(ref[i]));
        }
        return err <= 1e-9 * std::max(1.0, mag);
      }
      case Kind::kTranspose:
        // The input is read-only to the call.
        for (std::uint64_t i = 0; i < n; ++i) {
          for (std::uint64_t j = 0; j < n; ++j) {
            if (b_.raw()[j * n + i] != a_.raw()[i * n + j]) return false;
          }
        }
        return true;
      case Kind::kGep: {
        std::vector<double> ref(n * n);
        fill_weights(ref, n, rng);
        algo::gep_reference<algo::FloydWarshallInstance>(ref, n);
        return close(a_.raw(), ref);
      }
      case Kind::kListRank: {
        const auto order = algo::random_list_order(n, rng);
        for (std::uint64_t t = 0; t < n; ++t) {
          if (dist_.raw()[order[t]] != n - 1 - t) return false;
        }
        return true;
      }
      case Kind::kSpmdv: {
        std::vector<double> x(b_.size());
        fill_x(x, rng);
        return close(b_.raw(),
                     algo::spmdv_reference(algo::grid_matrix_reordered(n), x));
      }
      case Kind::kMatmul: {
        std::vector<double> a(n * n), b(n * n), ref(n * n, 0.0);
        fill_unit(a, b, rng);
        for (std::uint64_t i = 0; i < n; ++i) {
          for (std::uint64_t k = 0; k < n; ++k) {
            for (std::uint64_t j = 0; j < n; ++j) {
              ref[i * n + j] += a[i * n + k] * b[k * n + j];
            }
          }
        }
        return close(c_.raw(), ref);
      }
    }
    return false;
  }

 private:
  static void fill_scan(std::vector<std::int64_t>& v, util::Xoshiro256& rng) {
    for (auto& x : v) x = static_cast<std::int64_t>(rng.below(1000)) - 500;
  }
  static void fill_keys(std::vector<std::uint64_t>& v, util::Xoshiro256& rng) {
    for (auto& x : v) x = rng();
  }
  static void fill_cplx(std::vector<algo::cplx>& v, util::Xoshiro256& rng) {
    for (auto& x : v) x = algo::cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  }
  static void fill_weights(std::vector<double>& m, std::uint64_t n,
                           util::Xoshiro256& rng) {
    for (auto& x : m) x = 1.0 + 999.0 * rng.uniform();
    for (std::uint64_t i = 0; i < n; ++i) m[i * n + i] = 0.0;
  }
  static void fill_x(std::vector<double>& v, util::Xoshiro256& rng) {
    for (auto& x : v) x = rng.uniform() - 0.5;
  }
  static void fill_unit(std::vector<double>& a, std::vector<double>& b,
                        util::Xoshiro256& rng) {
    for (auto& x : a) x = rng.uniform();
    for (auto& x : b) x = rng.uniform();
  }

  /// |got - ref| <= 1e-12 max(1, |ref|) elementwise.
  static bool close(const std::vector<double>& got,
                    const std::vector<double>& ref) {
    if (got.size() != ref.size()) return false;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (std::abs(got[i] - ref[i]) > 1e-12 * std::max(1.0, std::abs(ref[i]))) {
        return false;
      }
    }
    return true;
  }

  template <class B>
  static std::span<const std::byte> bytes(const B& b) {
    return std::as_bytes(std::span(b.raw()));
  }

  void call(Exec& ex) {
    const std::uint64_t n = n_;
    if (size() == 0) return;
    using Mat = sched::MatView<decltype(a_.ref())>;
    switch (kind_) {
      case Kind::kScan:
        // mo_prefix_sum's call, on the scratch allocated up front.
        algo::mo_scan_inclusive(ex, i64_.ref(), scratch_.ref(),
                                algo::AddOp<std::int64_t>{});
        break;
      case Kind::kSort: algo::spms_sort(ex, keys_.ref()); break;
      case Kind::kFft: algo::mo_fft(ex, cx_.ref()); break;
      case Kind::kTranspose:
        algo::mo_transpose(ex, a_.ref(), b_.ref(), n);
        break;
      case Kind::kGep:
        algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(a_.ref(), n, n));
        break;
      case Kind::kListRank:
        algo::mo_list_rank(ex, succ_.ref(), pred_.ref(), dist_.ref());
        break;
      case Kind::kSpmdv:
        algo::mo_spmdv(ex, av_.ref(), a0_.ref(), a_.ref(), b_.ref());
        break;
      case Kind::kMatmul:
        algo::mo_matmul(ex, Mat::full(c_.ref(), n, n),
                        Mat::full(a_.ref(), n, n), Mat::full(b_.ref(), n, n));
        break;
    }
  }

  Kind kind_;
  std::uint64_t n_, seed_;
  // Which buffers exist depends on the kind (see the class comment).
  Buf<std::int64_t> i64_, scratch_;
  Buf<std::uint64_t> keys_, succ_, pred_, dist_, a0_;
  Buf<algo::cplx> cx_;
  Buf<double> a_, b_, c_;
  Buf<algo::SpmEntry> av_;
};

}  // namespace obliv::workload
