#ifndef PHOCUS_LSH_SIMHASH_H_
#define PHOCUS_LSH_SIMHASH_H_

#include <cstdint>
#include <vector>

#include "embedding/vector_ops.h"

/// \file simhash.h
/// SimHash (random-hyperplane LSH, Charikar 2002) for cosine similarity —
/// the randomized sparsification front-end of §4.3. Two unit vectors with
/// angle θ collide on a random hyperplane bit with probability 1 − θ/π, so
/// Hamming distance over many bits estimates cosine.

namespace phocus {

/// Packed bit signature; bit i lives at word i/64, position i%64.
using SimHashSignature = std::vector<std::uint64_t>;

class SimHasher {
 public:
  /// \param dimension embedding dimension
  /// \param num_bits signature length (multiple of 1..; any positive value)
  /// \param seed hyperplane seed
  SimHasher(std::size_t dimension, int num_bits, std::uint64_t seed);

  /// Computes the packed signature of a vector.
  SimHashSignature Signature(const Embedding& vector) const;

  /// In-place variant: resizes `*signature` to words_per_signature() and
  /// overwrites it. Lets batch hashers (the LSH pair scan) reuse
  /// preallocated slots instead of paying one heap allocation per vector.
  void SignatureInto(const Embedding& vector, SimHashSignature* signature) const;

  int num_bits() const { return num_bits_; }
  std::size_t dimension() const { return dimension_; }
  std::size_t words_per_signature() const {
    return static_cast<std::size_t>((num_bits_ + 63) / 64);
  }

  /// Hamming distance between two signatures of equal length.
  static int HammingDistance(const SimHashSignature& a,
                             const SimHashSignature& b);

  /// Unbiased cosine estimate from a Hamming distance:
  /// cos(π · hamming / num_bits).
  static double EstimateCosine(int hamming, int num_bits);

 private:
  std::size_t dimension_;
  int num_bits_;
  std::vector<float> hyperplanes_;  // row-major num_bits × dimension
};

}  // namespace phocus

#endif  // PHOCUS_LSH_SIMHASH_H_
