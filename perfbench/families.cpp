#include "families.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "algo/gep.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"

namespace perfbench {

namespace algo = obliv::algo;
namespace serve = obliv::serve;
using obliv::sched::NativeExecutor;
using obliv::sched::NatRef;
using obliv::util::Xoshiro256;
using Mat = obliv::sched::MatView<NatRef<double>>;

namespace {

template <class T>
NatRef<T> ref_of(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kScan: return "scan";
    case Kind::kTranspose: return "transpose";
    case Kind::kMatmul: return "matmul";
    case Kind::kGep: return "gep";
    case Kind::kFft: return "fft";
    case Kind::kSort: return "sort";
    case Kind::kListRank: return "listrank";
    case Kind::kSpmdv: return "spmdv";
  }
  return "?";
}

Kind served_kind(std::uint64_t i) {
  constexpr Kind kServed[serve::kFamilies] = {
      Kind::kScan, Kind::kSort,     Kind::kFft,  Kind::kTranspose,
      Kind::kGep,  Kind::kListRank, Kind::kSpmdv};
  return kServed[i];
}

std::vector<std::uint64_t> list_order(std::uint64_t n, Dist dist,
                                      Xoshiro256& rng) {
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const std::uint64_t block = dist == Dist::kSkewed ? 64 : n;
  for (std::uint64_t lo = 0; lo < n; lo += block) {
    const std::uint64_t len = std::min(block, n - lo);
    for (std::uint64_t i = len; i > 1; --i) {
      std::swap(perm[lo + i - 1], perm[lo + rng.below(i)]);
    }
  }
  return perm;
}

std::uint64_t sort_key(Dist dist, Xoshiro256& rng) {
  return dist == Dist::kSkewed ? rng.below(64) * 0x9e3779b97f4a7c15ull : rng();
}

Instance::Instance(Kind kind, std::uint64_t n, std::uint64_t seed, Dist dist,
                   std::shared_ptr<const algo::SparseMatrix> spm)
    : kind_(kind), n_(n), seed_(seed), dist_(dist), spm_(std::move(spm)) {
  reset();
}

void Instance::reset() {
  Xoshiro256 rng(seed_);
  const std::uint64_t n = n_;
  switch (kind_) {
    case Kind::kScan:
      i64_.resize(n);
      for (auto& v : i64_) v = static_cast<std::int64_t>(rng.below(1000)) - 500;
      break;
    case Kind::kSort:
      keys_.resize(n);
      for (auto& v : keys_) v = sort_key(dist_, rng);
      break;
    case Kind::kFft:
      cx_.resize(n);
      for (auto& v : cx_) v = algo::cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
      break;
    case Kind::kTranspose:
      a_.resize(n * n);
      for (auto& v : a_) v = rng.uniform();
      b_.assign(n * n, 0.0);
      break;
    case Kind::kMatmul:
      // Small integers: every order of summation is exact.
      a_.resize(n * n);
      b_.resize(n * n);
      for (auto& v : a_) v = static_cast<double>(rng.below(8));
      for (auto& v : b_) v = static_cast<double>(rng.below(8));
      c_.assign(n * n, 0.0);
      break;
    case Kind::kGep:
      a_.resize(n * n);
      for (auto& v : a_) v = static_cast<double>(1 + rng.below(1000));
      for (std::uint64_t i = 0; i < n; ++i) a_[i * n + i] = 0.0;
      break;
    case Kind::kListRank: {
      const auto perm = list_order(n, dist_, rng);
      succ_.assign(n, algo::kNil);
      pred_.assign(n, algo::kNil);
      dist_out_.assign(n, 0);
      for (std::uint64_t t = 0; t + 1 < n; ++t) {
        succ_[perm[t]] = perm[t + 1];
        pred_[perm[t + 1]] = perm[t];
      }
      break;
    }
    case Kind::kSpmdv:
      a_.resize(spm_->n);
      for (auto& v : a_) v = rng.uniform();
      b_.assign(spm_->n, 0.0);
      break;
  }
}

void Instance::run(NativeExecutor& ex) {
  const std::uint64_t n = n_;
  switch (kind_) {
    case Kind::kScan: algo::mo_prefix_sum(ex, ref_of(i64_)); break;
    case Kind::kSort: algo::spms_sort(ex, ref_of(keys_)); break;
    case Kind::kFft: algo::mo_fft(ex, ref_of(cx_)); break;
    case Kind::kTranspose:
      algo::mo_transpose(ex, ref_of(a_), ref_of(b_), n);
      break;
    case Kind::kMatmul:
      algo::mo_matmul(ex, Mat::full(ref_of(c_), n, n), Mat::full(ref_of(a_), n, n),
                      Mat::full(ref_of(b_), n, n));
      break;
    case Kind::kGep:
      algo::igep<algo::FloydWarshallInstance>(ex, Mat::full(ref_of(a_), n, n));
      break;
    case Kind::kListRank:
      algo::mo_list_rank(ex, ref_of(succ_), ref_of(pred_), ref_of(dist_out_));
      break;
    case Kind::kSpmdv: {
      // The call only reads the matrix; it is shared, never written.
      auto& m = const_cast<algo::SparseMatrix&>(*spm_);
      algo::mo_spmdv(ex, ref_of(m.av), ref_of(m.a0), ref_of(a_), ref_of(b_));
      break;
    }
  }
}

serve::Request Instance::request() {
  switch (kind_) {
    case Kind::kScan: return serve::ScanRequest{ref_of(i64_)};
    case Kind::kSort: return serve::SortRequest{ref_of(keys_)};
    case Kind::kFft: return serve::FftRequest{ref_of(cx_)};
    case Kind::kTranspose:
      return serve::TransposeRequest{ref_of(a_), ref_of(b_), n_};
    case Kind::kGep: return serve::GepRequest{ref_of(a_), n_};
    case Kind::kListRank:
      return serve::ListRankRequest{ref_of(succ_), ref_of(pred_),
                                    ref_of(dist_out_)};
    case Kind::kSpmdv: {
      auto& m = const_cast<algo::SparseMatrix&>(*spm_);
      return serve::SpmdvRequest{ref_of(m.av), ref_of(m.a0), ref_of(a_),
                                 ref_of(b_)};
    }
    case Kind::kMatmul: break;  // not a request family
  }
  return serve::ScanRequest{};
}

void Instance::make_reference(NativeExecutor& serial) {
  have_ref_ = true;
  if (kind_ == Kind::kScan || kind_ == Kind::kTranspose ||
      kind_ == Kind::kListRank) {
    return;  // checked without one
  }
  // The reference is computed from a freshly generated input, so it does
  // not depend on the state the buffers are in.
  Instance in(kind_, n_, seed_, dist_, spm_);
  const std::uint64_t n = n_;
  switch (kind_) {
    case Kind::kSort:
      ref_keys_ = std::move(in.keys_);
      std::sort(ref_keys_.begin(), ref_keys_.end());
      break;
    case Kind::kFft:
      ref_cx_ = std::move(in.cx_);
      algo::iterative_fft(serial, ref_of(ref_cx_));
      break;
    case Kind::kGep:
      ref_d_ = std::move(in.a_);
      algo::gep_reference<algo::FloydWarshallInstance>(ref_d_, n);
      break;
    case Kind::kMatmul:
      ref_d_.assign(n * n, 0.0);
      for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t k = 0; k < n; ++k) {
          const double aik = in.a_[i * n + k];
          for (std::uint64_t j = 0; j < n; ++j) {
            ref_d_[i * n + j] += aik * in.b_[k * n + j];
          }
        }
      }
      break;
    case Kind::kSpmdv: ref_d_ = algo::spmdv_reference(*spm_, in.a_); break;
    default: break;
  }
}

bool Instance::check(NativeExecutor& serial) {
  if (!have_ref_) make_reference(serial);
  const std::uint64_t n = n_;
  switch (kind_) {
    case Kind::kScan: {
      // Re-streams the input rather than keeping a copy: scan is the
      // largest native input.
      Xoshiro256 rng(seed_);
      std::int64_t sum = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        sum += static_cast<std::int64_t>(rng.below(1000)) - 500;
        if (i64_[i] != sum) return false;
      }
      return true;
    }
    case Kind::kSort: return keys_ == ref_keys_;
    case Kind::kFft: {
      double err = 0, mag = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        err = std::max(err, std::abs(cx_[i] - ref_cx_[i]));
        mag = std::max(mag, std::abs(ref_cx_[i]));
      }
      return err <= 1e-9 * std::max(1.0, mag);
    }
    case Kind::kTranspose:
      // The input is read-only to the call.
      for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
          if (b_[j * n + i] != a_[i * n + j]) return false;
        }
      }
      return true;
    case Kind::kMatmul: return c_ == ref_d_;
    case Kind::kGep: return a_ == ref_d_;
    case Kind::kListRank: {
      Xoshiro256 rng(seed_);
      const auto perm = list_order(n, dist_, rng);
      for (std::uint64_t t = 0; t < n; ++t) {
        if (dist_out_[perm[t]] != n - 1 - t) return false;
      }
      return true;
    }
    case Kind::kSpmdv:
      for (std::uint64_t i = 0; i < ref_d_.size(); ++i) {
        const double r = ref_d_[i];
        if (std::abs(b_[i] - r) > 1e-12 * std::max(1.0, std::abs(r))) return false;
      }
      return true;
  }
  return false;
}

}  // namespace perfbench
