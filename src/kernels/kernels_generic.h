#ifndef PHOCUS_KERNELS_KERNELS_GENERIC_H_
#define PHOCUS_KERNELS_KERNELS_GENERIC_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

/// \file kernels_generic.h
/// Internal: the portable blocked implementations of every kernel, written
/// to mirror the AVX2 instruction sequence operation-for-operation (see the
/// determinism contract in kernels.h). Everything here is `static` —
/// deliberately internal linkage — so the AVX2 translation unit (compiled
/// with -mavx2) gets its own private copy for tails/short inputs instead of
/// an ODR-merged definition that might carry AVX2 codegen into the portable
/// build.

namespace phocus {
namespace kernels {
namespace generic {

/// Combines the 8 accumulator lanes with the fixed tree the AVX2 build
/// performs: lanewise accA+accB (l+4), then 128-bit halves (+2), then the
/// final pair. Element i always accumulates into lane i % 8.
static inline double CombineLanes(const double lanes[8]) {
  const double s0 = lanes[0] + lanes[4];
  const double s1 = lanes[1] + lanes[5];
  const double s2 = lanes[2] + lanes[6];
  const double s3 = lanes[3] + lanes[7];
  return (s0 + s2) + (s1 + s3);
}

static inline double DotImpl(const float* a, const float* b, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    // double(a)·double(b) is exact (24-bit mantissas), so this mul+add
    // rounds once — identical to the AVX2 build's fused multiply-add.
    lanes[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return CombineLanes(lanes);
}

static inline void DotRowsImpl(const float* a, const float* rows,
                               std::size_t count, std::size_t n,
                               double* out) {
  for (std::size_t r = 0; r < count; ++r) out[r] = DotImpl(a, rows + r * n, n);
}

static inline double SquaredNormImpl(const float* a, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(a[i]);
    lanes[i % 8] += v * v;
  }
  return CombineLanes(lanes);
}

static inline double SquaredDistanceImpl(const float* a, const float* b,
                                         std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    // d² is not exact, so the AVX2 build uses separate mul+add here (no
    // FMA) to match this two-rounding sequence.
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    lanes[i % 8] += d * d;
  }
  return CombineLanes(lanes);
}

static inline void ScaleInPlaceImpl(float* a, std::size_t n, float s) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= s;
}

static inline void ScaleIntoImpl(float* dst, const float* src, std::size_t n,
                                 float s) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * s;
}

static inline double WeightedSumImpl(const double* rel, const float* best,
                                     std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i % 8] += rel[i] * static_cast<double>(best[i]);
  }
  return CombineLanes(lanes);
}

/// One gain element: d = sim − best (exact iff representable; identically
/// rounded on both builds), contributing rel·d where sim > best. The
/// explicit `: 0.0` arm mirrors the AVX2 masked add (adding +0.0 never
/// changes an accumulator — lanes can never hold −0.0, see kernels.h).
static inline double GainTerm(float sim, double rel, float best) {
  const double d = static_cast<double>(sim) - static_cast<double>(best);
  return d > 0.0 ? rel * d : 0.0;
}

static inline double GainScanImpl(const float* sim, const double* rel,
                                  const float* best, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i % 8] += GainTerm(sim[i], rel[i], best[i]);
  }
  return CombineLanes(lanes);
}

static inline double GainScanUniformImpl(const double* rel, const float* best,
                                         std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i % 8] += GainTerm(1.0f, rel[i], best[i]);
  }
  return CombineLanes(lanes);
}

static inline double GainUpdateImpl(const float* sim, const double* rel,
                                    float* best, std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i % 8] += GainTerm(sim[i], rel[i], best[i]);
    // sim > best ⟺ d > 0 (an IEEE difference is zero only for equal
    // operands), so this matches the gain mask exactly.
    if (sim[i] > best[i]) best[i] = sim[i];
  }
  return CombineLanes(lanes);
}

static inline double GainUpdateUniformImpl(const double* rel, float* best,
                                           std::size_t n) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i % 8] += GainTerm(1.0f, rel[i], best[i]);
    if (1.0f > best[i]) best[i] = 1.0f;
  }
  return CombineLanes(lanes);
}

static inline double GainScanSparseImpl(const std::uint32_t* idx,
                                        const float* val, std::size_t n,
                                        const double* rel, const float* best) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t j = idx[k];
    lanes[k % 8] += GainTerm(val[k], rel[j], best[j]);
  }
  return CombineLanes(lanes);
}

static inline void SimHashSignatureImpl(const float* planes,
                                        std::size_t num_bits, const float* vec,
                                        std::size_t dim,
                                        std::uint64_t* out_words) {
  const std::size_t words = (num_bits + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) out_words[w] = 0;
  for (std::size_t bit = 0; bit < num_bits; ++bit) {
    if (DotImpl(planes + bit * dim, vec, dim) >= 0.0) {
      out_words[bit / 64] |= 1ULL << (bit % 64);
    }
  }
}

/// Quantize one coefficient: float division, then exact
/// round-half-away-from-zero (std::lround semantics). The AVX2 build
/// emulates the same rounding from trunc + exact fraction.
static inline std::int32_t QuantizeCoeff(float dct, float q) {
  return static_cast<std::int32_t>(std::lround(dct / q));
}

static inline void QuantizeBlockImpl(const float* dct, const float* qtab,
                                     std::int32_t* out) {
  for (int i = 0; i < 64; ++i) out[i] = QuantizeCoeff(dct[i], qtab[i]);
}

static inline int HammingImpl(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) {
  int distance = 0;
  for (std::size_t i = 0; i < words; ++i) {
    distance += std::popcount(a[i] ^ b[i]);
  }
  return distance;
}

}  // namespace generic
}  // namespace kernels
}  // namespace phocus

#endif  // PHOCUS_KERNELS_KERNELS_GENERIC_H_
