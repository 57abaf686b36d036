// Kernel-family microbenchmarks shared by bench_wallclock (wall-clock
// scalar-vs-auto rows) and bench_native_cache (hardware-counter IPC and
// cache-miss validation).  One entry per vectorized family, always timed
// through the runtime dispatcher so simd::ScopedMode selects the path
// under test.
//
// Working sets are L2-resident: these rows answer "what do the vector
// lanes buy on the ALU-bound leaves", not "how fast is DRAM".
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/spmdv.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace obliv::bench {

/// One kernel-family microbenchmark: `run` executes `iters` dispatcher
/// calls over `n`-element arrays; ns/op is per element.
struct KernelBench {
  std::string name;
  std::uint64_t n = 0;
  std::uint64_t iters = 0;
  std::function<void()> run;
};

inline std::vector<KernelBench> kernel_benches(bool smoke) {
  const std::uint64_t n = smoke ? 1u << 10 : 1u << 14;
  const std::uint64_t iters = smoke ? 8 : 128;
  util::Xoshiro256 rng(11);
  std::vector<KernelBench> k;
  {
    auto src = std::make_shared<std::vector<double>>(2 * n);
    auto dst = std::make_shared<std::vector<double>>(n);
    for (auto& v : *src) v = rng.uniform();
    k.push_back({"scan:pair_sum", n, iters, [src, dst, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::pair_sum_f64(src->data(), dst->data(), n);
                   }
                 }});
  }
  {
    auto t = std::make_shared<std::vector<double>>(n);
    auto v = std::make_shared<std::vector<double>>(2 * n);
    for (auto& x : *t) x = rng.uniform();
    for (auto& x : *v) x = rng.uniform();
    k.push_back({"scan:expand", n, iters, [t, v, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::scan_expand_f64(t->data(), v->data(), 1, n);
                   }
                 }});
  }
  {
    auto ra = std::make_shared<std::vector<double>>(n);
    auto ia = std::make_shared<std::vector<double>>(n);
    auto rb = std::make_shared<std::vector<double>>(n);
    auto ib = std::make_shared<std::vector<double>>(n);
    auto wre = std::make_shared<std::vector<double>>(n);
    auto wim = std::make_shared<std::vector<double>>(n);
    for (auto& x : *ra) x = rng.uniform();
    for (auto& x : *ia) x = rng.uniform();
    for (auto& x : *rb) x = rng.uniform();
    for (auto& x : *ib) x = rng.uniform();
    for (std::uint64_t j = 0; j < n; ++j) {
      (*wre)[j] = std::cos(0.001 * static_cast<double>(j));
      (*wim)[j] = std::sin(0.001 * static_cast<double>(j));
    }
    k.push_back({"fft:butterfly", n, iters,
                 [ra, ia, rb, ib, wre, wim, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::butterfly_f64(ra->data(), ia->data(), rb->data(),
                                         ib->data(), wre->data(), wim->data(),
                                         n);
                   }
                 }});
  }
  {
    auto y = std::make_shared<std::vector<double>>(n);
    auto v = std::make_shared<std::vector<double>>(n);
    for (auto& x : *y) x = rng.uniform() + 1.0;
    for (auto& x : *v) x = rng.uniform();
    // min-updates converge, so repetitions time the same all-compare path.
    k.push_back({"gep:fw_min", n, iters, [y, v, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::fw_min_f64(y->data(), v->data(), 0.5, n);
                   }
                 }});
  }
  {
    auto y = std::make_shared<std::vector<double>>(n);
    auto v = std::make_shared<std::vector<double>>(n);
    for (auto& x : *y) x = rng.uniform();
    for (auto& x : *v) x = rng.uniform();
    // Alternating-sign updates keep y bounded across repetitions.
    k.push_back({"gep:axpy", n, iters, [y, v, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::axpy_f64(y->data(), v->data(),
                                    r % 2 == 0 ? 1e-3 : -1e-3, n);
                   }
                 }});
  }
  // 2-D tile kernels on 64 leaves of 8 x 8 x 8, laid out either packed
  // (ld 8) or side by side in 8-row strips at ld 512 (the 4 KiB row stride
  // of an n = 512 matrix).  n counts element updates: 512 per tile.
  for (const std::uint64_t ld : {std::uint64_t{8}, std::uint64_t{512}}) {
    const std::uint64_t tiles = 64, step = ld == 8 ? 64 : 8;
    const std::string suffix = ld == 8 ? "" : "_ld512";
    auto y = std::make_shared<std::vector<double>>(tiles * 64);
    auto u = std::make_shared<std::vector<double>>(tiles * 64);
    auto v = std::make_shared<std::vector<double>>(tiles * 64);
    for (auto& x : *y) x = rng.uniform() + 1.0;
    for (auto& x : *u) x = rng.uniform();
    for (auto& x : *v) x = rng.uniform();
    // min-updates converge, as for gep:fw_min.
    for (const auto& [name, tile] :
         {std::pair{"matmul:tile", &simd::tile_matmul_f64},
          std::pair{"gep:tile_minplus", &simd::tile_minplus_f64}}) {
      k.push_back({name + suffix, tiles * 512, iters,
                   [tile, y, u, v, ld, tiles, step, iters] {
                     for (std::uint64_t r = 0; r < iters; ++r) {
                       for (std::uint64_t t = 0; t < tiles; ++t) {
                         tile(y->data() + t * step, ld, u->data() + t * step,
                              ld, v->data() + t * step, ld, 8, 8, 8);
                       }
                     }
                   }});
    }
  }
  {
    auto e = std::make_shared<std::vector<algo::SpmEntry>>(n);
    auto x = std::make_shared<std::vector<double>>(n);
    auto sink = std::make_shared<double>(0.0);
    for (auto& v : *x) v = rng.uniform();
    for (std::uint64_t i = 0; i < n; ++i) {
      (*e)[i] = {rng() % n, rng.uniform()};
    }
    k.push_back({"spmdv:dot", n, iters, [e, x, sink, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     *sink += simd::dot_strided_f64(&(*e)[0].col, &(*e)[0].val,
                                                    2, x->data(), n);
                   }
                 }});
  }
  {
    auto base = std::make_shared<std::vector<double>>(n);
    auto idx = std::make_shared<std::vector<std::uint64_t>>(n);
    auto dst = std::make_shared<std::vector<double>>(n);
    for (auto& v : *base) v = rng.uniform();
    for (auto& i : *idx) i = rng() % n;
    k.push_back({"transpose:gather", n, iters, [base, idx, dst, n, iters] {
                   for (std::uint64_t r = 0; r < iters; ++r) {
                     simd::gather_f64(base->data(), idx->data(), dst->data(),
                                      n);
                   }
                 }});
  }
  return k;
}

}  // namespace obliv::bench
