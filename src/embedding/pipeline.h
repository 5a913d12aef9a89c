#ifndef PHOCUS_EMBEDDING_PIPELINE_H_
#define PHOCUS_EMBEDDING_PIPELINE_H_

#include <memory>
#include <vector>

#include "embedding/descriptors.h"
#include "embedding/vector_ops.h"
#include "imaging/raster.h"

/// \file pipeline.h
/// The full image → embedding pipeline (the ResNet-50 stand-in).
///
/// Images are resized to a working resolution, three descriptor families are
/// extracted (color / gradient / texture), weighted, concatenated and
/// L2-normalized. All entries are nonnegative, so cosine similarity between
/// any two embeddings lies in [0, 1] as the PAR model requires.

namespace phocus {

struct EmbeddingPipelineOptions {
  int working_size = 64;     ///< images are resized to working_size²
  float color_weight = 1.0f;
  float hog_weight = 1.0f;
  float lbp_weight = 0.5f;
  ColorHistogramOptions color;
  HogOptions hog;
  /// When > 0, the concatenated descriptor is reduced to this dimension via
  /// a seeded Gaussian random projection (and re-normalized). Projected
  /// embeddings can have negative entries; downstream similarity clamps
  /// cosine at 0. Keeps memory/similarity cost flat for large archives.
  std::size_t projection_dim = 0;
  std::uint64_t projection_seed = 0x9a7ec7;
};

/// Stateless extractor; cheap to copy.
class EmbeddingPipeline {
 public:
  explicit EmbeddingPipeline(EmbeddingPipelineOptions options = {});

  /// Extracts the unit-norm embedding of one image.
  Embedding Extract(const Image& image) const;

  /// Extracts embeddings for a batch, parallelized over the global pool.
  std::vector<Embedding> ExtractBatch(const std::vector<Image>& images) const;

  /// Final embedding dimensionality (after projection, if configured).
  std::size_t dimension() const;

  /// Dimensionality of the raw concatenated descriptor (pre-projection).
  std::size_t descriptor_dimension() const;

  const EmbeddingPipelineOptions& options() const { return options_; }

 private:
  EmbeddingPipelineOptions options_;
  // RandomProjection::Shared's process-wide matrix; null if off.
  std::shared_ptr<const class RandomProjection> projection_;
};

}  // namespace phocus

#endif  // PHOCUS_EMBEDDING_PIPELINE_H_
