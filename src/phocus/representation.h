#ifndef PHOCUS_PHOCUS_REPRESENTATION_H_
#define PHOCUS_PHOCUS_REPRESENTATION_H_

#include "core/instance.h"
#include "datagen/corpus.h"

/// \file representation.h
/// The Data Representation Module (§5.1, Figure 4): turns a photo corpus —
/// photos with embeddings/costs plus pre-defined subset specifications —
/// into a solvable ParInstance. It normalizes relevance scores and
/// materializes the contextualized similarity function in the storage mode
/// the solver will consume:
///   - dense contextual SIM (the PHOcus-NS input),
///   - τ-sparsified SIM (the PHOcus input): the same contextual SIM at
///     every subset size, each subset's pairs >= τ taken from one exact
///     all-pairs sweep (SubsetSimilarityAbove) without a dense matrix,
///   - a non-contextual surrogate (same cosine for every context) used by
///     the Greedy-NCS baseline.

namespace phocus {

struct RepresentationOptions {
  /// Per-subset max-distance renormalization (§5.1); disable to obtain the
  /// Greedy-NCS non-contextual similarity.
  bool context_normalize = true;
  /// Weight of the EXIF metadata distance inside SIM; 0 = visual only.
  double exif_weight = 0.0;
  /// τ-sparsification threshold in [0, 1]; 0 keeps the dense matrices
  /// (PHOcus-NS).
  double sparsify_tau = 0.0;
};

/// Empty: BuildInstance keeps no state between calls. Kept, with the
/// ignored trailing parameter below, only because phocus_bench names both.
struct LshIndexCache {
  void Clear() {}
};

/// Builds the PAR instance for `corpus` under storage budget `budget`.
ParInstance BuildInstance(const Corpus& corpus, Cost budget,
                          const RepresentationOptions& options = {},
                          LshIndexCache* unused = nullptr);

/// Convenience: the Greedy-NCS surrogate (non-contextual SIM, dense).
ParInstance BuildNonContextualInstance(const Corpus& corpus, Cost budget);

}  // namespace phocus

#endif  // PHOCUS_PHOCUS_REPRESENTATION_H_
