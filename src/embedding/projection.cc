#include "embedding/projection.h"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "util/logging.h"
#include "util/rng.h"

namespace phocus {

RandomProjection::RandomProjection(std::size_t input_dim,
                                   std::size_t output_dim, std::uint64_t seed)
    : input_dim_(input_dim), output_dim_(output_dim) {
  PHOCUS_CHECK(input_dim > 0 && output_dim > 0, "bad projection dimensions");
  matrix_.resize(input_dim * output_dim);
  Rng rng(seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(output_dim));
  for (float& entry : matrix_) {
    entry = static_cast<float>(rng.Normal()) * scale;
  }
}

std::shared_ptr<const RandomProjection> RandomProjection::Shared(
    std::size_t input_dim, std::size_t output_dim, std::uint64_t seed) {
  // Leaked: outlives every worker thread that may still be projecting.
  static std::mutex* mutex = new std::mutex();
  static auto* memo =
      new std::map<std::tuple<std::size_t, std::size_t, std::uint64_t>,
                   std::shared_ptr<const RandomProjection>>();
  const std::lock_guard<std::mutex> lock(*mutex);
  auto it = memo->find({input_dim, output_dim, seed});
  if (it == memo->end()) {
    it = memo->emplace(std::make_tuple(input_dim, output_dim, seed),
                       std::make_shared<const RandomProjection>(
                           input_dim, output_dim, seed))
             .first;
  }
  return it->second;
}

Embedding RandomProjection::Apply(const Embedding& input) const {
  PHOCUS_CHECK(input.size() == input_dim_,
               "projection input dimension mismatch");
  Embedding out(output_dim_, 0.0f);
  for (std::size_t row = 0; row < output_dim_; ++row) {
    const float* weights = &matrix_[row * input_dim_];
    double acc = 0.0;
    for (std::size_t col = 0; col < input_dim_; ++col) {
      acc += static_cast<double>(weights[col]) * input[col];
    }
    out[row] = static_cast<float>(acc);
  }
  return out;
}

}  // namespace phocus
