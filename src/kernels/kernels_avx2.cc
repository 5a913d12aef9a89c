#include "kernels/kernels.h"
#include "kernels/kernels_generic.h"
#include "kernels/table_impl.h"

/// \file kernels_avx2.cc
/// The AVX2+FMA kernel build. Compiled with -mavx2 -mfma (see
/// CMakeLists.txt); only ever *called* after a CPUID check in dispatch.cc.
///
/// Every reduction here reproduces the generic build's arithmetic
/// operation-for-operation (see the determinism contract in kernels.h):
/// element i accumulates into double lane i % 8, the low 4 floats of each
/// 8-wide chunk feed accumulator A (lanes 0-3) and the high 4 feed
/// accumulator B (lanes 4-7), tails continue scalar into the same lane
/// slots, and the final combine is the generic CombineLanes tree. FMA is
/// used only where the fused product is exactly representable (the double
/// product of two floats), so fusing cannot change the rounding sequence.

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <algorithm>

namespace phocus {
namespace kernels {
namespace {

inline __m256d LowPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}

inline __m256d HighPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

/// Four floats widened straight from memory: no high-half extract, which
/// the 4-row dot loop would otherwise pay once per row per chunk.
inline __m256d LoadPd(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// Spills the two 4-wide accumulators into the generic lane layout so the
/// scalar tail and CombineLanes finish the reduction bit-identically.
inline void SpillLanes(__m256d acc_a, __m256d acc_b, double lanes[8]) {
  _mm256_storeu_pd(lanes, acc_a);
  _mm256_storeu_pd(lanes + 4, acc_b);
}

/// Finishes one dot from its two accumulators: spill, scalar tail from
/// `main`, combine.
inline double FinishDot(__m256d acc_a, __m256d acc_b, const float* a,
                        const float* b, std::size_t main, std::size_t n) {
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return generic::CombineLanes(lanes);
}

double DotAvx2(const float* a, const float* b, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    // Exact double products: FMA == mul+add, one rounding either way.
    acc_a = _mm256_fmadd_pd(LowPd(va), LowPd(vb), acc_a);
    acc_b = _mm256_fmadd_pd(HighPd(va), HighPd(vb), acc_b);
  }
  return FinishDot(acc_a, acc_b, a, b, main, n);
}

void DotRowsAvx2(const float* a, const float* rows, std::size_t count,
                 std::size_t n, double* out) {
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  // Four rows per pass: the widened chunk of `a` is shared by four pairs,
  // and the eight independent accumulator chains keep the FMA pipes busy.
  // Each pair keeps its own two accumulators, so every output is its
  // DotAvx2 bit for bit.
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* r0 = rows + (r + 0) * n;
    const float* r1 = rows + (r + 1) * n;
    const float* r2 = rows + (r + 2) * n;
    const float* r3 = rows + (r + 3) * n;
    __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < main; i += 8) {
      const __m256d vlo = LoadPd(a + i);
      const __m256d vhi = LoadPd(a + i + 4);
      a0 = _mm256_fmadd_pd(vlo, LoadPd(r0 + i), a0);
      b0 = _mm256_fmadd_pd(vhi, LoadPd(r0 + i + 4), b0);
      a1 = _mm256_fmadd_pd(vlo, LoadPd(r1 + i), a1);
      b1 = _mm256_fmadd_pd(vhi, LoadPd(r1 + i + 4), b1);
      a2 = _mm256_fmadd_pd(vlo, LoadPd(r2 + i), a2);
      b2 = _mm256_fmadd_pd(vhi, LoadPd(r2 + i + 4), b2);
      a3 = _mm256_fmadd_pd(vlo, LoadPd(r3 + i), a3);
      b3 = _mm256_fmadd_pd(vhi, LoadPd(r3 + i + 4), b3);
    }
    out[r + 0] = FinishDot(a0, b0, a, r0, main, n);
    out[r + 1] = FinishDot(a1, b1, a, r1, main, n);
    out[r + 2] = FinishDot(a2, b2, a, r2, main, n);
    out[r + 3] = FinishDot(a3, b3, a, r3, main, n);
  }
  for (; r < count; ++r) out[r] = DotAvx2(a, rows + r * n, n);
}

double SquaredNormAvx2(const float* a, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256d lo = LowPd(va);
    const __m256d hi = HighPd(va);
    acc_a = _mm256_fmadd_pd(lo, lo, acc_a);
    acc_b = _mm256_fmadd_pd(hi, hi, acc_b);
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    const double v = static_cast<double>(a[i]);
    lanes[i % 8] += v * v;
  }
  return generic::CombineLanes(lanes);
}

double SquaredDistanceAvx2(const float* a, const float* b, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d dlo = _mm256_sub_pd(LowPd(va), LowPd(vb));
    const __m256d dhi = _mm256_sub_pd(HighPd(va), HighPd(vb));
    // d² is inexact — separate mul+add to match the generic two-rounding
    // sequence (no FMA).
    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(dlo, dlo));
    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(dhi, dhi));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    lanes[i % 8] += d * d;
  }
  return generic::CombineLanes(lanes);
}

void ScaleInPlaceAvx2(float* a, std::size_t n, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (std::size_t i = main; i < n; ++i) a[i] *= s;
}

void ScaleIntoAvx2(float* dst, const float* src, std::size_t n, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(src + i), vs));
  }
  for (std::size_t i = main; i < n; ++i) dst[i] = src[i] * s;
}

double WeightedSumAvx2(const double* rel, const float* best, std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 vb = _mm256_loadu_ps(best + i);
    // rel is a full-precision double — the product is inexact, so no FMA.
    acc_a = _mm256_add_pd(
        acc_a, _mm256_mul_pd(_mm256_loadu_pd(rel + i), LowPd(vb)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(_mm256_loadu_pd(rel + i + 4), HighPd(vb)));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += rel[i] * static_cast<double>(best[i]);
  }
  return generic::CombineLanes(lanes);
}

/// One 4-wide gain step: lane += (sim − best > 0) ? rel·(sim − best) : +0.
/// The masked-off lanes add +0.0, which never changes an accumulator
/// (lanes can never hold −0.0 — see kernels.h).
inline __m256d GainStep(__m256d acc, __m256d sim, __m256d best, __m256d rel) {
  const __m256d d = _mm256_sub_pd(sim, best);
  const __m256d mask = _mm256_cmp_pd(d, _mm256_setzero_pd(), _CMP_GT_OQ);
  return _mm256_add_pd(acc, _mm256_and_pd(_mm256_mul_pd(rel, d), mask));
}

double GainScanAvx2(const float* sim, const double* rel, const float* best,
                    std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 vs = _mm256_loadu_ps(sim + i);
    const __m256 vb = _mm256_loadu_ps(best + i);
    acc_a = GainStep(acc_a, LowPd(vs), LowPd(vb), _mm256_loadu_pd(rel + i));
    acc_b =
        GainStep(acc_b, HighPd(vs), HighPd(vb), _mm256_loadu_pd(rel + i + 4));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += generic::GainTerm(sim[i], rel[i], best[i]);
  }
  return generic::CombineLanes(lanes);
}

double GainScanUniformAvx2(const double* rel, const float* best,
                           std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 vb = _mm256_loadu_ps(best + i);
    acc_a = GainStep(acc_a, one, LowPd(vb), _mm256_loadu_pd(rel + i));
    acc_b = GainStep(acc_b, one, HighPd(vb), _mm256_loadu_pd(rel + i + 4));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += generic::GainTerm(1.0f, rel[i], best[i]);
  }
  return generic::CombineLanes(lanes);
}

double GainUpdateAvx2(const float* sim, const double* rel, float* best,
                      std::size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 vs = _mm256_loadu_ps(sim + i);
    const __m256 vb = _mm256_loadu_ps(best + i);
    acc_a = GainStep(acc_a, LowPd(vs), LowPd(vb), _mm256_loadu_pd(rel + i));
    acc_b =
        GainStep(acc_b, HighPd(vs), HighPd(vb), _mm256_loadu_pd(rel + i + 4));
    // sim > best (float) ⟺ the double difference above is > 0, so this
    // raise uses exactly the gain mask's predicate.
    const __m256 raise = _mm256_cmp_ps(vs, vb, _CMP_GT_OQ);
    _mm256_storeu_ps(best + i, _mm256_blendv_ps(vb, vs, raise));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += generic::GainTerm(sim[i], rel[i], best[i]);
    if (sim[i] > best[i]) best[i] = sim[i];
  }
  return generic::CombineLanes(lanes);
}

double GainUpdateUniformAvx2(const double* rel, float* best, std::size_t n) {
  const __m256d one_pd = _mm256_set1_pd(1.0);
  const __m256 one_ps = _mm256_set1_ps(1.0f);
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < main; i += 8) {
    const __m256 vb = _mm256_loadu_ps(best + i);
    acc_a = GainStep(acc_a, one_pd, LowPd(vb), _mm256_loadu_pd(rel + i));
    acc_b = GainStep(acc_b, one_pd, HighPd(vb), _mm256_loadu_pd(rel + i + 4));
    const __m256 raise = _mm256_cmp_ps(one_ps, vb, _CMP_GT_OQ);
    _mm256_storeu_ps(best + i, _mm256_blendv_ps(vb, one_ps, raise));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t i = main; i < n; ++i) {
    lanes[i % 8] += generic::GainTerm(1.0f, rel[i], best[i]);
    if (1.0f > best[i]) best[i] = 1.0f;
  }
  return generic::CombineLanes(lanes);
}

double GainScanSparseAvx2(const std::uint32_t* idx, const float* val,
                          std::size_t n, const double* rel,
                          const float* best) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  // All-ones gather masks with an explicit zero source: the plain
  // _mm256_i32gather_* intrinsics read _mm256_undefined_*() internally,
  // which gcc 12 flags as maybe-uninitialized under -Werror.
  const __m256 mask_ps = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  const __m256d mask_pd = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const std::size_t main = n & ~static_cast<std::size_t>(7);
  for (std::size_t k = 0; k < main; k += 8) {
    const __m256i vidx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + k));
    const __m128i idx_lo = _mm256_castsi256_si128(vidx);
    const __m128i idx_hi = _mm256_extracti128_si256(vidx, 1);
    const __m256 vv = _mm256_loadu_ps(val + k);
    const __m256 vb = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), best,
                                               vidx, mask_ps, 4);
    acc_a = GainStep(acc_a, LowPd(vv), LowPd(vb),
                     _mm256_mask_i32gather_pd(_mm256_setzero_pd(), rel,
                                              idx_lo, mask_pd, 8));
    acc_b = GainStep(acc_b, HighPd(vv), HighPd(vb),
                     _mm256_mask_i32gather_pd(_mm256_setzero_pd(), rel,
                                              idx_hi, mask_pd, 8));
  }
  double lanes[8];
  SpillLanes(acc_a, acc_b, lanes);
  for (std::size_t k = main; k < n; ++k) {
    const std::uint32_t j = idx[k];
    lanes[k % 8] += generic::GainTerm(val[k], rel[j], best[j]);
  }
  return generic::CombineLanes(lanes);
}

void SimHashSignatureAvx2(const float* planes, std::size_t num_bits,
                          const float* vec, std::size_t dim,
                          std::uint64_t* out_words) {
  // One DotRows batch per signature word. The products are exact, so
  // dot(vec, row) is the generic dot(row, vec) bit for bit.
  const std::size_t words = (num_bits + 63) / 64;
  double dots[64];
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t first = w * 64;
    const std::size_t bits = std::min<std::size_t>(64, num_bits - first);
    DotRowsAvx2(vec, planes + first * dim, bits, dim, dots);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (dots[b] >= 0.0) word |= 1ULL << b;
    }
    out_words[w] = word;
  }
}

void Dct8x8Avx2(const float* input, float* output) {
  const internal::DctTables& t = internal::GetDctTables();
  alignas(32) float temp[64];
  // Row pass, vectorized over the 8 output frequencies k. Each k lane runs
  // the generic build's per-k float mul+add sequence (no FMA — the float
  // products are inexact, fusing would change the rounding).
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int n = 0; n < 8; ++n) {
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_broadcast_ss(input + y * 8 + n),
                                        _mm256_load_ps(t.cos_nk[n])));
    }
    _mm256_store_ps(temp + y * 8,
                    _mm256_mul_ps(_mm256_load_ps(t.alpha), acc));
  }
  // Column pass, vectorized over the 8 columns x.
  for (int k = 0; k < 8; ++k) {
    __m256 acc = _mm256_setzero_ps();
    for (int n = 0; n < 8; ++n) {
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_load_ps(temp + n * 8),
                             _mm256_broadcast_ss(&t.cos_kn[k][n])));
    }
    _mm256_storeu_ps(output + k * 8,
                     _mm256_mul_ps(_mm256_broadcast_ss(&t.alpha[k]), acc));
  }
}

void QuantizeBlockAvx2(const float* dct, const float* qtab,
                       std::int32_t* out) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 neg_half = _mm256_set1_ps(-0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  for (int i = 0; i < 64; i += 8) {
    const __m256 q =
        _mm256_div_ps(_mm256_loadu_ps(dct + i), _mm256_loadu_ps(qtab + i));
    // Exact lround (round half away from zero): trunc + exact fraction,
    // then a ±1 adjustment where |frac| ≥ ½. The naive floor(|x| + 0.5)
    // trick is wrong near .5-ulp boundaries (e.g. 0.49999997f), this isn't.
    const __m256 tr =
        _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_sub_ps(q, tr);  // exact by Sterbenz
    const __m256 up = _mm256_and_ps(_mm256_cmp_ps(frac, half, _CMP_GE_OQ),
                                    one);
    const __m256 down = _mm256_and_ps(
        _mm256_cmp_ps(frac, neg_half, _CMP_LE_OQ), one);
    const __m256 rounded =
        _mm256_add_ps(tr, _mm256_sub_ps(up, down));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_cvtps_epi32(rounded));
  }
}

}  // namespace

namespace internal {

const KernelTable& Avx2TableImpl() {
  static const KernelTable table = {
      "avx2",
      DotAvx2,
      DotRowsAvx2,
      SquaredNormAvx2,
      SquaredDistanceAvx2,
      ScaleInPlaceAvx2,
      ScaleIntoAvx2,
      WeightedSumAvx2,
      GainScanAvx2,
      GainScanUniformAvx2,
      GainUpdateAvx2,
      GainUpdateUniformAvx2,
      GainScanSparseAvx2,
      SimHashSignatureAvx2,
      Dct8x8Avx2,
      QuantizeBlockAvx2,
      // Signature words are few (1-4); the scalar XOR-popcount is already
      // optimal and exact, so both tables share the generic integer path.
      generic::HammingImpl,
  };
  return table;
}

}  // namespace internal
}  // namespace kernels
}  // namespace phocus
