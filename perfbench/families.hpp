// One generated problem instance per algorithm family, shared by the
// native-batch phase (direct calls) and the serve-mix phase (served
// requests), so both paths generate inputs and check outputs the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/fft.hpp"
#include "algo/spmdv.hpp"
#include "common.hpp"
#include "sched/native_executor.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// The eight native families: the seven request families plus matmul.
enum class Kind : std::uint8_t {
  kScan,
  kTranspose,
  kMatmul,
  kGep,
  kFft,
  kSort,
  kListRank,
  kSpmdv
};

const char* kind_name(Kind k);

/// The family of a served request of index `i` in [0, serve::kFamilies).
Kind served_kind(std::uint64_t i);

/// The node visited t-th by the generated list, for t in [0, n).
std::vector<std::uint64_t> list_order(std::uint64_t n, Dist dist,
                                      obliv::util::Xoshiro256& rng);

/// Sort keys of the given distribution.
std::uint64_t sort_key(Dist dist, obliv::util::Xoshiro256& rng);

/// A problem instance whose input is a pure function of (kind, n, seed,
/// dist): reset() regenerates it, so an instance can be run any number of
/// times.  check() compares the output with a serial reference, computed on
/// its first use and kept:
///   sort: equal to std::sort of the input (sorted and a permutation);
///   scan, transpose, listrank, matmul (integer-valued): exact;
///   gep: exact against the serial Floyd-Warshall loop (integer weights);
///   fft: within 1e-9 x max|X| of the iterative radix-2 FFT;
///   spmdv: within 1e-12 (relative) of spmdv_reference.
class Instance {
 public:
  /// `n` is the element count, or the matrix side; spmdv takes its grid
  /// matrix (`spm`, shared read-only) instead.
  Instance(Kind kind, std::uint64_t n, std::uint64_t seed, Dist dist,
           std::shared_ptr<const obliv::algo::SparseMatrix> spm = nullptr);

  Kind kind() const { return kind_; }
  const char* name() const { return kind_name(kind_); }

  /// Restores the input (and clears the output).
  void reset();
  /// The family's call on `ex`.
  void run(obliv::sched::NativeExecutor& ex);
  /// The same call as a server request (every kind but kMatmul).
  obliv::serve::Request request();
  /// Whether the output matches the reference; `serial` is a 1-thread
  /// executor for the FFT reference.
  bool check(obliv::sched::NativeExecutor& serial);

 private:
  void make_reference(obliv::sched::NativeExecutor& serial);

  Kind kind_;
  std::uint64_t n_, seed_;
  Dist dist_;
  std::shared_ptr<const obliv::algo::SparseMatrix> spm_;
  // Buffers the call views.  Which ones are used depends on the kind.
  std::vector<std::int64_t> i64_;
  std::vector<std::uint64_t> keys_, succ_, pred_, dist_out_;
  std::vector<obliv::algo::cplx> cx_;
  std::vector<double> a_, b_, c_;
  // Serial reference (sort, fft, gep, matmul, spmdv).
  bool have_ref_ = false;
  std::vector<std::uint64_t> ref_keys_;
  std::vector<obliv::algo::cplx> ref_cx_;
  std::vector<double> ref_d_;
};

}  // namespace perfbench
