#ifndef PHOCUS_EMBEDDING_PROJECTION_H_
#define PHOCUS_EMBEDDING_PROJECTION_H_

#include <cstdint>
#include <memory>

#include "embedding/vector_ops.h"

/// \file projection.h
/// Gaussian random projection (Johnson–Lindenstrauss style) used to reduce
/// concatenated descriptors to a compact embedding dimension before
/// similarity / LSH work.

namespace phocus {

/// A dense seeded random projection matrix.
class RandomProjection {
 public:
  /// \param input_dim source dimension
  /// \param output_dim target dimension
  /// \param seed matrix seed; the same (dims, seed) always yields the same map
  RandomProjection(std::size_t input_dim, std::size_t output_dim,
                   std::uint64_t seed);

  /// The process-wide projection for (input_dim, output_dim, seed): drawn
  /// once on first use and immutable after, so every pipeline with the same
  /// options shares one matrix instead of redrawing it.
  static std::shared_ptr<const RandomProjection> Shared(
      std::size_t input_dim, std::size_t output_dim, std::uint64_t seed);

  /// Projects and returns the reduced vector (entries scaled by
  /// 1/sqrt(output_dim) so expected norms are preserved).
  Embedding Apply(const Embedding& input) const;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }

 private:
  std::size_t input_dim_;
  std::size_t output_dim_;
  std::vector<float> matrix_;  // row-major output_dim × input_dim
};

}  // namespace phocus

#endif  // PHOCUS_EMBEDDING_PROJECTION_H_
