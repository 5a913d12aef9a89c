#ifndef PHOCUS_DATAGEN_OPENIMAGES_H_
#define PHOCUS_DATAGEN_OPENIMAGES_H_

#include <cstdint>

#include "datagen/corpus.h"

/// \file openimages.h
/// Generator for the public "P" datasets of Table 2, mirroring how the paper
/// built them from Open Images (§5.2): photos carry labels with confidence
/// scores; every observed label becomes a pre-defined subset whose members
/// are the photos carrying it, relevance is the label confidence, and subset
/// importance is the label's frequency in the (much larger) full source.

namespace phocus {

struct OpenImagesOptions {
  std::size_t num_photos = 1000;
  std::uint64_t seed = 1;
  /// Labels in the modeled full source; popularity is Zipf over them, so
  /// only a small, size-dependent fraction appears in a sample, and that
  /// fraction forms the subsets. Names are computed per drawn label
  /// (LabelName), so the size costs nothing per call. Must be in
  /// [1, kLabelVocabularyCapacity].
  std::size_t vocabulary_size = 200000;
  /// Zipf skew of label popularity; calibrates how many distinct labels (=
  /// subsets) a sample of a given size observes.
  double label_zipf_exponent = 1.8;
  /// Labels per photo: 1 primary + up to (max_labels_per_photo − 1)
  /// co-occurring secondaries.
  int max_labels_per_photo = 4;
  /// Probability that a photo is a near-duplicate re-shot of the previous
  /// photo (same labels, jittered scene) — the redundancy PAR exploits.
  double near_duplicate_prob = 0.25;
  /// Rendered raster edge; embeddings are computed at this size.
  int render_size = 64;
  /// Fraction of photos marked policy-required (S0).
  double required_fraction = 0.0;
};

Corpus GenerateOpenImagesCorpus(const OpenImagesOptions& options);

}  // namespace phocus

#endif  // PHOCUS_DATAGEN_OPENIMAGES_H_
