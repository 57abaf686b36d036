// Portable SIMD layer for native-path leaf kernels.
//
// The algorithm templates are shared by three backends (sim / native / NO);
// only the *native* backend touches plain memory, so only the native backend
// may take these kernels -- the sim path's golden counters depend on the
// exact per-element access sequence and must stay bit-identical.  Callers
// gate on `sched::is_direct_ref_v<Ref>` (an explicit marker, not duck
// typing) plus `simd::use_kernels()`.
//
// Contract: every dispatcher below has THREE semantically layered
// implementations --
//
//   * a vector implementation (GNU vector extensions, 256-bit lanes when the
//     translation unit is built with AVX2, 128-bit lowering otherwise),
//   * a scalar fallback that is BIT-IDENTICAL to the vector path on every
//     input (elementwise kernels are trivially so, and the 2-D tile
//     kernels keep each element's k order; the one reduction,
//     `dot_strided_f64`, fixes a 4-accumulator combine order that both
//     implementations share), and
//   * the caller's pre-existing generic loop (`Mode::kGeneric` skips the
//     kernels entirely), kept as the reference semantics.
//
// NaN is the one exception to bit identity: a NaN result is NaN on every
// path, but its sign and payload are unspecified.  When both operands of
// an add are NaN, x86 keeps the first, and operand order is the
// compiler's choice.
//
// Both kernel TUs are compiled with -ffp-contract=off so FMA contraction
// cannot split the vector and scalar paths apart.  `OBLIV_SIMD=OFF`
// (-DOBLIV_SIMD_ENABLED=0) compiles the vector TU down to stubs; the scalar
// fallback always exists, so native results are identical under ON and OFF.
//
// Tail policy: vector bodies step in full lanes and finish with the scalar
// fallback over the remainder -- tails are never masked loads, so no kernel
// reads or writes a single byte outside [ptr, ptr+n).  All vector memory
// access goes through load_u/store_u (memcpy), which makes alignment and
// strict aliasing a non-issue by construction; callers may pass pointers
// with any alignment.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#ifndef OBLIV_SIMD_ENABLED
#define OBLIV_SIMD_ENABLED 1
#endif

namespace obliv::simd {

// Widest lane width (in 8-byte words) any build of the kernels may use.
// Scheduler granularity floors align to this so leaves are never smaller
// than one vector stride.
inline constexpr unsigned kMaxLaneWords = 4;

inline constexpr bool kSimdBuilt = OBLIV_SIMD_ENABLED != 0;

// Runtime kernel mode.  kAuto selects the vector path when the build and
// the CPU support it; kScalar forces the bit-identical scalar fallback
// (exactly what an OBLIV_SIMD=OFF build runs); kGeneric makes
// use_kernels() false so callers keep their pre-kernel generic loops --
// the benches use it to measure the refactor against the old code without
// a second binary.
enum class Mode : unsigned char { kAuto, kScalar, kGeneric };

namespace detail {
extern std::atomic<Mode> g_mode;
// True when the vector TU was compiled with real vector support and the
// host CPU can execute it (cached cpuid probe).
bool vector_supported() noexcept;
// DFT base-case twiddles w[j] = polar(1, -2*pi*j/m) for j < m (m <= 8),
// split into re/im -- the exact expression the generic dft_base uses, so
// table-driven kernels stay bit-identical to it.  Shared by the scalar
// and vector TUs.
void dft_twiddles(double* wr, double* wi, unsigned m) noexcept;
}  // namespace detail

inline Mode mode() noexcept {
  return detail::g_mode.load(std::memory_order_relaxed);
}
inline void set_mode(Mode m) noexcept {
  detail::g_mode.store(m, std::memory_order_relaxed);
}

// RAII mode override for tests/benches.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) : prev_(mode()) { set_mode(m); }
  ~ScopedMode() { set_mode(prev_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode prev_;
};

inline bool use_kernels() noexcept { return mode() != Mode::kGeneric; }
inline bool vector_active() noexcept {
  return kSimdBuilt && mode() == Mode::kAuto && detail::vector_supported();
}
// Lane width (doubles per step) the dispatchers currently use.
unsigned lane_width() noexcept;
// "avx2", "vec128", or "scalar" -- for bench/JSON provenance.
const char* active_isa() noexcept;

// Unaligned load/store through memcpy: the only way the kernel TUs touch
// memory.  V is a (vector or scalar) value type, P the pointee type.
template <class V, class P>
inline V load_u(const P* p) noexcept {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}
template <class V, class P>
inline void store_u(P* p, V v) noexcept {
  std::memcpy(p, &v, sizeof(V));
}

// ---- kernels -------------------------------------------------------------
// Dispatchers (vector when vector_active(), scalar fallback otherwise).
// Unless noted, source and destination ranges must not partially overlap
// (exact overlap, dst == src, is fine for the in-place update kernels).

// memcpy-shaped bulk copy (trivially copyable payloads; run views, tiles,
// sort base-case load/store).
void copy_bytes(const void* src, void* dst, std::size_t n) noexcept;

// Scan contract step: dst[i] = src[2i] + src[2i+1], i in [0, pairs).
void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept;
void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept;

// Scan expand step for i in [i_lo, i_hi), requires i_lo >= 1:
//   v[2i] = t[i-1] + v[2i];  v[2i+1] = t[i]
// (the caller handles i == 0, whose first half is the identity).
void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept;
void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept;

// Radix-2 FFT butterflies over split re/im streams, a- and b-halves
// passed separately so callers can run any sub-range of a block:
//   b = (rb[j], ib[j]) * (wre[j], wim[j])
//   (ra[j], ia[j]) = a + b;  (rb[j], ib[j]) = a - b     for j in [0, n)
// with the complex product expanded as (br*wr - bi*wi, br*wi + bi*wr).
void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept;

// O(m^2) DFT base case over split re/im, m in {1,2,4,8}; out[f] =
// sum_t in[t] * W[(f*t) % m] accumulated in ascending t order.  The
// twiddle table W is built internally with the same expression the
// generic path uses (polar(1, -2*pi*j/m)).
void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept;

// GEP row updates over a contiguous j-range (y = row i, v = row k):
//   Floyd-Warshall:  y[j] = (u + v[j] < y[j]) ? u + v[j] : y[j]
//   Gaussian:        y[j] = y[j] - f * v[j]     (f = u / w, divided once)
//   matmul embed:    y[j] = y[j] + a * v[j]
// y and v may be the same pointer (i == k rows) but must not partially
// overlap.
void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept;
void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept;
void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept;

// 2-D tile kernels over row-major tiles with leading dimensions (in
// doubles) ldy/ldu/ldv, for any m x n output and inner extent k:
//   matmul:   Y[i][j] = Y[i][j] + U[i][l] * V[l][j]
//   min-plus: Y[i][j] = (U[i][l] + V[l][j] < Y[i][j]) ? U[i][l] + V[l][j]
//                                                     : Y[i][j]
// for l = 0, 1, ..., k-1 in ascending order.  The vector path holds a
// 4-row x 8-column block of Y in registers across the whole k walk (4-wide
// and scalar edges for other shapes); the scalar fallback runs the
// k-outer row loop.  Each element of Y is updated independently, through
// the same operation sequence in the same l order as one axpy_f64 /
// fw_min_f64 call per (l, i) row, so both paths are bit-identical to that
// row loop and to each other -- only the order *across* elements changes.
// CONTRACT: Y must not overlap U or V.  The register block reads U and V
// long after earlier stores to Y, so an aliased operand (an I-GEP A/B/C
// tile, where row or column k lies inside Y) would see stale values; only
// function-D tiles (I, J and K pairwise disjoint) and C += A * B with
// separate matrices qualify.
void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept;
void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept;

// SPMDV row kernel over AoS entries {u64 col; f64 val} addressed as two
// strided streams (stride in 8-byte words, i.e. 2 for SpmEntry):
//   acc[l] += vals[i*stride] * x[cols[i*stride]]   (lane l = i % 4)
// over full groups of 4, combined as ((acc0+acc1)+(acc2+acc3)), then the
// tail added sequentially.  Scalar and vector paths share this exact
// order, so the result is bit-identical across modes (but NOT to a plain
// serial loop -- the generic path keeps its own accumulator).
// CONTRACT: when stride_words == 2 the two streams must be the SAME
// interleaved entry array (vals == reinterpret_cast<const double*>(cols) + 1)
// -- the vector path deinterleaves one combined load.
double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept;

// Contiguous-store gather: dst[i] = base[idx[i]].
void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept;

// Two-word-element variant for complex<double> tiles (base/dst viewed as
// doubles): dst[2i..2i+1] = base[2*idx[i] .. 2*idx[i]+1].
void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept;

// ---- fixed implementations (for parity tests and the bench ratio rows) --
// scalar:: is the guaranteed-correct fallback; vec:: is the vector path
// (forwards to scalar:: when the build has no vector support -- check
// vec::available()).
namespace scalar {
void copy_bytes(const void* src, void* dst, std::size_t n) noexcept;
void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept;
void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept;
void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept;
void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept;
void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept;
void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept;
void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept;
void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept;
void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept;
void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept;
void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept;
double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept;
void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept;
void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept;
}  // namespace scalar

namespace vec {
bool available() noexcept;          // TU has real vector codegen
bool requires_avx2() noexcept;      // TU was built with -mavx2
void copy_bytes(const void* src, void* dst, std::size_t n) noexcept;
void pair_sum_f64(const double* src, double* dst, std::size_t pairs) noexcept;
void pair_sum_u64(const std::uint64_t* src, std::uint64_t* dst,
                  std::size_t pairs) noexcept;
void scan_expand_f64(const double* t, double* v, std::size_t i_lo,
                     std::size_t i_hi) noexcept;
void scan_expand_u64(const std::uint64_t* t, std::uint64_t* v,
                     std::size_t i_lo, std::size_t i_hi) noexcept;
void butterfly_f64(double* ra, double* ia, double* rb, double* ib,
                   const double* wre, const double* wim,
                   std::size_t n) noexcept;
void dft_pow2_f64(const double* re_in, const double* im_in, double* re_out,
                  double* im_out, unsigned m) noexcept;
void fw_min_f64(double* y, const double* v, double u, std::size_t n) noexcept;
void gauss_update_f64(double* y, const double* v, double f,
                      std::size_t n) noexcept;
void axpy_f64(double* y, const double* v, double a, std::size_t n) noexcept;
void tile_matmul_f64(double* y, std::size_t ldy, const double* u,
                     std::size_t ldu, const double* v, std::size_t ldv,
                     std::size_t m, std::size_t n, std::size_t k) noexcept;
void tile_minplus_f64(double* y, std::size_t ldy, const double* u,
                      std::size_t ldu, const double* v, std::size_t ldv,
                      std::size_t m, std::size_t n, std::size_t k) noexcept;
double dot_strided_f64(const std::uint64_t* cols, const double* vals,
                       std::size_t stride_words, const double* x,
                       std::size_t n) noexcept;
void gather_f64(const double* base, const std::uint64_t* idx, double* dst,
                std::size_t n) noexcept;
void gather_2f64(const double* base, const std::uint64_t* idx, double* dst,
                 std::size_t n) noexcept;
}  // namespace vec

// Typed convenience over copy_bytes for run views / tile rows.
template <class T>
inline void copy_elems(const T* src, T* dst, std::size_t n) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  copy_bytes(src, dst, n * sizeof(T));
}

}  // namespace obliv::simd
