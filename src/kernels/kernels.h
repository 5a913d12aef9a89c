#ifndef PHOCUS_KERNELS_KERNELS_H_
#define PHOCUS_KERNELS_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// \file kernels.h
/// SIMD kernel layer: contiguous `(ptr, len)` primitives behind the four
/// compute-bound paths of the pipeline — embedding dot/cosine reductions,
/// SimHash hyperplane signatures, the objective evaluator's best-sim gain
/// scans, and the 8×8 forward DCT + quantization of the JPEG size
/// estimator.
///
/// ## Dispatch
///
/// Two implementations exist: a portable scalar build (always compiled)
/// and an AVX2+FMA build (compiled when the toolchain supports `-mavx2`,
/// used when CPUID reports AVX2+FMA at runtime). `Active()` resolves the
/// table once per process, honoring the `PHOCUS_KERNELS` environment
/// variable:
///
///   PHOCUS_KERNELS=scalar   force the portable build
///   PHOCUS_KERNELS=avx2     force AVX2 (CheckFailure if unavailable)
///   unset / ""              best available
///
/// ## Determinism contract
///
/// Every float reduction uses a fixed-order 8-lane blocked accumulation:
/// element `i` accumulates into lane `i % 8` (in doubles), and the eight
/// lanes are combined with the fixed tree
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the exact sequence the AVX2
/// build performs with two 4-wide double accumulators. The scalar build
/// replicates that order operation-for-operation, so **scalar and AVX2
/// results are bit-identical**, not merely close:
///
///   - `Dot`/`SquaredNorm`: the double product of two floats is exact
///     (24-bit mantissas), so the AVX2 FMA rounds exactly once — the same
///     single rounding as the scalar `acc += double(a) * double(b)`.
///   - `DotRows`: each output is its pair's `Dot`, bit for bit. The AVX2
///     build takes four rows per pass but keeps every pair's own two
///     accumulators, scalar tail and combine tree; batching only shares
///     the loads of `a`.
///   - gain scans / `SquaredDistance`: the AVX2 build deliberately uses
///     separate multiply + add (no FMA), matching the scalar two-rounding
///     sequence per lane.
///   - DCT/quantization: per-lane multiply/add in float, no FMA, and an
///     exact `lround` (round-half-away-from-zero) emulation.
///
/// A consequence the determinism tests rely on: a plan computed under
/// `PHOCUS_KERNELS=scalar` is byte-identical to one computed under
/// `PHOCUS_KERNELS=avx2`, on any thread count.
///
/// ## Operation counters
///
/// The inline wrappers below optionally maintain machine-independent
/// element counters (one relaxed atomic add per call, gated behind a plain
/// bool so production paths pay a predictable branch only). The perf wall
/// (`bench/bench_kernels.cc`, `kernels_perf_smoke`) enables them around a
/// fixed fixture and enforces hard bounds: the counts depend only on the
/// call sequence, never on ISA, threads, or machine speed. A batched op
/// counts what its unbatched calls would: `DotRows` adds `count·n` to
/// `dot_elems`, as `count` calls of `Dot` do.

namespace phocus {
namespace kernels {

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

/// One implementation of every kernel. All pointers are non-null.
/// `n` is an element count; buffers may be arbitrarily aligned (kernels use
/// unaligned loads) but must not overlap unless stated.
struct KernelTable {
  const char* name;  ///< "scalar" or "avx2"

  /// Σ a[i]·b[i] in blocked double accumulation.
  double (*dot)(const float* a, const float* b, std::size_t n);
  /// out[r] = dot(a, rows + r·n, n) for r < count: one vector against
  /// `count` contiguous row-major rows.
  void (*dot_rows)(const float* a, const float* rows, std::size_t count,
                   std::size_t n, double* out);
  /// Σ a[i]² in blocked double accumulation.
  double (*squared_norm)(const float* a, std::size_t n);
  /// Σ (a[i]−b[i])² in blocked double accumulation.
  double (*squared_distance)(const float* a, const float* b, std::size_t n);
  /// a[i] *= s.
  void (*scale_inplace)(float* a, std::size_t n, float s);
  /// dst[i] = src[i] * s (dst must not overlap src).
  void (*scale_into)(float* dst, const float* src, std::size_t n, float s);
  /// Σ rel[i]·best[i] (relevance is double, best-sim is float).
  double (*weighted_sum)(const double* rel, const float* best, std::size_t n);

  /// Gain scans over a best-sim arena slice (the objective's inner loop).
  /// Per element: d = double(sim[i]) − double(best[i]);
  /// lane += (d > 0) ? rel[i]·d : 0. `gain_update_*` additionally raises
  /// best[i] to sim[i] where d > 0. `*_uniform` variants take sim ≡ 1.
  double (*gain_scan)(const float* sim, const double* rel, const float* best,
                      std::size_t n);
  double (*gain_scan_uniform)(const double* rel, const float* best,
                              std::size_t n);
  double (*gain_update)(const float* sim, const double* rel, float* best,
                        std::size_t n);
  double (*gain_update_uniform)(const double* rel, float* best, std::size_t n);
  /// Sparse (CSR row) gain scan: element k contributes with
  /// sim = val[k], rel = rel[idx[k]], best = best[idx[k]].
  double (*gain_scan_sparse)(const std::uint32_t* idx, const float* val,
                             std::size_t n, const double* rel,
                             const float* best);

  /// SimHash signature: bit b of `out_words` (packed little-endian, word
  /// b/64 bit b%64) is set iff the blocked dot of hyperplane row b
  /// (`planes + b·dim`) with `vec` is ≥ 0. Zeroes all
  /// `(num_bits + 63) / 64` output words first.
  void (*simhash_signature)(const float* planes, std::size_t num_bits,
                            const float* vec, std::size_t dim,
                            std::uint64_t* out_words);

  /// Separable orthonormal 8×8 forward DCT (row pass then column pass,
  /// matching the historical scalar loop order exactly).
  void (*dct8x8)(const float* input, float* output);
  /// out[i] = lround(dct[i] / qtab[i]) — float division, exact
  /// round-half-away-from-zero.
  void (*quantize_block)(const float* dct, const float* qtab,
                         std::int32_t* out);

  /// Popcount of a XOR b over `words` 64-bit words (signature Hamming
  /// distance). Integer path: exact by construction.
  int (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t words);
};

/// The portable build (always available).
const KernelTable& ScalarTable();

/// The AVX2+FMA build, or nullptr when it is not compiled in or the CPU
/// does not support it.
const KernelTable* Avx2Table();

/// True when the AVX2 build was compiled into this binary (independent of
/// what the CPU supports).
bool Avx2CompiledIn();

/// The table selected for this process (resolved once; see file comment).
/// Throws CheckFailure if PHOCUS_KERNELS names an unavailable or unknown
/// implementation.
const KernelTable& Active();

/// Name of the active table ("scalar"/"avx2") — stamped into bench JSON.
const char* ActiveIsaName();

/// Pure resolver behind Active(): maps a PHOCUS_KERNELS value (nullptr =
/// unset) to a table. Exposed so tests can sweep values without forking.
const KernelTable& ResolveTable(const char* env_value);

// ---------------------------------------------------------------------------
// Operation counters
// ---------------------------------------------------------------------------

/// Machine-independent operation counts accumulated by the wrappers below
/// while counting is enabled. All units are elements processed (for
/// simhash: hyperplane-element multiply-accumulates, i.e. num_bits × dim
/// per signature; for DCT/quantize: 64-coefficient blocks; for hamming:
/// 64-bit words).
struct OpCounts {
  std::uint64_t dot_elems = 0;      ///< dots + norms + distance + weighted_sum
  std::uint64_t scale_elems = 0;    ///< scale_inplace + scale_into
  std::uint64_t gain_elems = 0;     ///< all gain scan/update variants
  std::uint64_t simhash_macs = 0;   ///< signature multiply-accumulates
  std::uint64_t dct_blocks = 0;     ///< forward DCT blocks
  std::uint64_t quant_blocks = 0;   ///< quantized blocks
  std::uint64_t hamming_words = 0;  ///< XOR-popcount words
};

/// Enables/disables counting (off by default; benches and the perf smoke
/// turn it on around their fixtures).
void SetOpCountingEnabled(bool enabled);
bool OpCountingEnabled();

/// Snapshot of the counts accumulated since the last Reset.
OpCounts SnapshotOpCounts();
void ResetOpCounts();

namespace internal {

struct OpCountCells {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> dot_elems{0};
  std::atomic<std::uint64_t> scale_elems{0};
  std::atomic<std::uint64_t> gain_elems{0};
  std::atomic<std::uint64_t> simhash_macs{0};
  std::atomic<std::uint64_t> dct_blocks{0};
  std::atomic<std::uint64_t> quant_blocks{0};
  std::atomic<std::uint64_t> hamming_words{0};
};

OpCountCells& Cells();

inline void Count(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
  if (Cells().enabled.load(std::memory_order_relaxed)) {
    cell.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Counting wrappers (the call sites the pipeline uses)
// ---------------------------------------------------------------------------

inline double Dot(const float* a, const float* b, std::size_t n) {
  internal::Count(internal::Cells().dot_elems, n);
  return Active().dot(a, b, n);
}

/// count·n elements: one `Dot` per row.
inline void DotRows(const float* a, const float* rows, std::size_t count,
                    std::size_t n, double* out) {
  internal::Count(internal::Cells().dot_elems,
                  static_cast<std::uint64_t>(count) * n);
  Active().dot_rows(a, rows, count, n, out);
}

inline double SquaredNorm(const float* a, std::size_t n) {
  internal::Count(internal::Cells().dot_elems, n);
  return Active().squared_norm(a, n);
}

inline double SquaredDistance(const float* a, const float* b, std::size_t n) {
  internal::Count(internal::Cells().dot_elems, n);
  return Active().squared_distance(a, b, n);
}

inline void ScaleInPlace(float* a, std::size_t n, float s) {
  internal::Count(internal::Cells().scale_elems, n);
  Active().scale_inplace(a, n, s);
}

inline void ScaleInto(float* dst, const float* src, std::size_t n, float s) {
  internal::Count(internal::Cells().scale_elems, n);
  Active().scale_into(dst, src, n, s);
}

inline double WeightedSum(const double* rel, const float* best,
                          std::size_t n) {
  internal::Count(internal::Cells().dot_elems, n);
  return Active().weighted_sum(rel, best, n);
}

inline double GainScan(const float* sim, const double* rel, const float* best,
                       std::size_t n) {
  internal::Count(internal::Cells().gain_elems, n);
  return Active().gain_scan(sim, rel, best, n);
}

inline double GainScanUniform(const double* rel, const float* best,
                              std::size_t n) {
  internal::Count(internal::Cells().gain_elems, n);
  return Active().gain_scan_uniform(rel, best, n);
}

inline double GainUpdate(const float* sim, const double* rel, float* best,
                         std::size_t n) {
  internal::Count(internal::Cells().gain_elems, n);
  return Active().gain_update(sim, rel, best, n);
}

inline double GainUpdateUniform(const double* rel, float* best,
                                std::size_t n) {
  internal::Count(internal::Cells().gain_elems, n);
  return Active().gain_update_uniform(rel, best, n);
}

inline double GainScanSparse(const std::uint32_t* idx, const float* val,
                             std::size_t n, const double* rel,
                             const float* best) {
  internal::Count(internal::Cells().gain_elems, n);
  return Active().gain_scan_sparse(idx, val, n, rel, best);
}

inline void SimHashSignature(const float* planes, std::size_t num_bits,
                             const float* vec, std::size_t dim,
                             std::uint64_t* out_words) {
  internal::Count(internal::Cells().simhash_macs,
                  static_cast<std::uint64_t>(num_bits) * dim);
  Active().simhash_signature(planes, num_bits, vec, dim, out_words);
}

inline void ForwardDct8x8(const float* input, float* output) {
  internal::Count(internal::Cells().dct_blocks, 1);
  Active().dct8x8(input, output);
}

inline void QuantizeBlock8x8(const float* dct, const float* qtab,
                             std::int32_t* out) {
  internal::Count(internal::Cells().quant_blocks, 1);
  Active().quantize_block(dct, qtab, out);
}

inline int Hamming(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t words) {
  internal::Count(internal::Cells().hamming_words, words);
  return Active().hamming(a, b, words);
}

}  // namespace kernels
}  // namespace phocus

#endif  // PHOCUS_KERNELS_KERNELS_H_
