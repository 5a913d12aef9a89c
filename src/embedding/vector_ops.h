#ifndef PHOCUS_EMBEDDING_VECTOR_OPS_H_
#define PHOCUS_EMBEDDING_VECTOR_OPS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/logging.h"

/// \file vector_ops.h
/// Dense float vector arithmetic for embeddings.

namespace phocus {

using Embedding = std::vector<float>;

/// Dot product; vectors must have equal dimension.
double Dot(const Embedding& a, const Embedding& b);

/// Euclidean norm.
double Norm(const Embedding& a);

/// Cosine similarity in [-1, 1]; returns 0 if either vector is zero.
double CosineSimilarity(const Embedding& a, const Embedding& b);

/// Euclidean distance.
double EuclideanDistance(const Embedding& a, const Embedding& b);

/// Scales `a` in place to unit norm (no-op for the zero vector).
void NormalizeInPlace(Embedding& a);

/// Appends `tail` to `head` with a scalar weight applied to the tail block.
void AppendWeighted(Embedding& head, const Embedding& tail, float weight);

/// `rows` vectors of dimension `dim`, row-major in one contiguous buffer:
/// row i is data[i·dim, (i+1)·dim). A view; the buffer outlives it.
struct RowMatrix {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t dim = 0;

  const float* row(std::size_t i) const { return data + i * dim; }
};

/// Copies `count` equal-dimension vectors, `vector(k)` for k < count, into
/// `buffer` as rows 0..count−1 and returns their view. `buffer` only grows,
/// so a caller that gathers many matrices reuses one allocation.
template <typename VectorAt>
RowMatrix GatherRows(std::size_t count, const VectorAt& vector,
                     std::vector<float>& buffer) {
  const std::size_t dim = count == 0 ? 0 : vector(0).size();
  if (buffer.size() < count * dim) buffer.resize(count * dim);
  for (std::size_t k = 0; k < count; ++k) {
    const Embedding& v = vector(k);
    PHOCUS_CHECK(v.size() == dim, "vector dimension mismatch");
    std::copy(v.begin(), v.end(), buffer.begin() + k * dim);
  }
  return {buffer.data(), count, dim};
}

}  // namespace phocus

#endif  // PHOCUS_EMBEDDING_VECTOR_OPS_H_
