#ifndef PHOCUS_EMBEDDING_CONTEXT_H_
#define PHOCUS_EMBEDDING_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"
#include "imaging/exif.h"

/// \file context.h
/// Contextualized similarity (the paper's SIM function, §3.1 and §5.1).
///
/// Raw pairwise similarity is cosine over embeddings, optionally blended
/// with an EXIF-attribute distance. The *contextual* variant rescales
/// distances per pre-defined subset by the maximum pairwise distance within
/// that subset — so photos of one narrow context (e.g. a single trip) are
/// only "redundant" when they match in fine detail, while in a broad context
/// coarse similarity suffices (§5.1's Paris-trip discussion).

namespace phocus {

struct ContextSimilarityOptions {
  /// Enables the per-subset max-distance renormalization.
  bool context_normalize = true;
  /// Weight of the EXIF distance term in [0,1]; 0 means visual-only.
  double exif_weight = 0.0;
  /// Similarities strictly below this floor are clamped to 0 (a light
  /// pre-sparsification; keep 0 to preserve all pairs).
  double min_similarity = 0.0;
};

/// Computes the dense symmetric similarity matrix for one subset's members.
///
/// \param embeddings all photo embeddings (indexed by photo id)
/// \param exif per-photo metadata; may be null when exif_weight == 0
/// \param members photo ids in the subset, defining the context
/// \returns row-major |members|×|members| matrix; diagonal is exactly 1, all
///          entries in [0, 1]
std::vector<float> SubsetSimilarityMatrix(
    const std::vector<Embedding>& embeddings,
    const std::vector<ExifMetadata>* exif,
    const std::vector<std::uint32_t>& members,
    const ContextSimilarityOptions& options = {});

/// One subset's τ-sparsified SIM in CSR form: row i lists, in ascending
/// order, the members j ≠ i whose similarity to i is at least τ. Each pair
/// has one value, written into both of its rows, so the CSR is mirrored bit
/// for bit, as Subset's kSparse rows must be.
struct SparseSimilarity {
  std::vector<std::uint32_t> offsets;  ///< m + 1 row starts
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
};

/// SubsetSimilarityMatrix(vectors, exif, {0, …, m−1}, options) thresholded
/// at τ — entries s ≠ diagonal with s >= float(τ) and s > 0 — bit for bit,
/// without the dense matrix: one SweepPairs sweep yields the context's max
/// pairwise distance and every pair that can reach τ after renormalizing
/// (SIM ≤ 1 − d, since the max distance is at most 1), which are then
/// rescaled with SubsetSimilarityMatrix's expressions. `vectors` (one row
/// per member) and `exif` are the subset's own, indexed 0..m−1. Requires
/// τ ∈ (0, 1] and exif_weight ∈ [0, 1].
SparseSimilarity SubsetSimilarityAbove(
    const RowMatrix& vectors,
    const std::vector<ExifMetadata>* exif, double tau,
    const ContextSimilarityOptions& options = {});

/// Raw (non-contextual) pairwise similarity between two photos.
double RawSimilarity(const std::vector<Embedding>& embeddings,
                     const std::vector<ExifMetadata>* exif, std::uint32_t a,
                     std::uint32_t b, const ContextSimilarityOptions& options);

}  // namespace phocus

#endif  // PHOCUS_EMBEDDING_CONTEXT_H_
