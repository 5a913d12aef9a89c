#include "util/samplers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/logging.h"

namespace phocus {

namespace {

/// Rank k's unnormalized mass. The constructor and every block re-sum add
/// these terms in the same order from the same checkpoint, so a re-summed
/// running total is bit-equal to the one the constructor saw.
double ZipfTerm(std::size_t k, double exponent) {
  return 1.0 / std::pow(static_cast<double>(k + 1), exponent);
}

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double exponent)
    : n_(n), exponent_(exponent) {
  PHOCUS_CHECK(n > 0, "ZipfSampler requires n > 0");
  PHOCUS_CHECK(exponent >= 0.0, "Zipf exponent must be nonnegative");
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  block_start_.resize(blocks);
  block_last_.resize(blocks);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k % kBlock == 0) block_start_[k / kBlock] = total;
    total += ZipfTerm(k, exponent);
    if (k % kBlock == kBlock - 1 || k == n - 1) block_last_[k / kBlock] = total;
  }
  total_ = total;
  for (double& c : block_last_) c /= total;
  block_last_.back() = 1.0;
}

const ZipfSampler& ZipfSampler::Shared(std::size_t n, double exponent) {
  // Leaked: outlives every worker thread that may still be drawing.
  static std::mutex* mutex = new std::mutex();
  static auto* memo =
      new std::map<std::pair<std::size_t, double>,
                   std::unique_ptr<const ZipfSampler>>();
  const std::lock_guard<std::mutex> lock(*mutex);
  auto it = memo->find({n, exponent});
  if (it == memo->end()) {
    it = memo->emplace(std::make_pair(n, exponent),
                       std::make_unique<const ZipfSampler>(n, exponent))
             .first;
  }
  return *it->second;
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  // The first rank whose CDF reaches u lies in the first block whose last
  // CDF does; within it, re-sum until the running CDF reaches u.
  auto it = std::lower_bound(block_last_.begin(), block_last_.end(), u);
  if (it == block_last_.end()) return n_ - 1;
  const std::size_t block = static_cast<std::size_t>(it - block_last_.begin());
  const std::size_t last = std::min((block + 1) * kBlock, n_) - 1;
  double total = block_start_[block];
  for (std::size_t k = block * kBlock; k < last; ++k) {
    total += ZipfTerm(k, exponent_);
    if (total / total_ >= u) return k;
  }
  return last;  // block_last_[block] >= u
}

double ZipfSampler::Probability(std::size_t k) const {
  PHOCUS_CHECK(k < n_, "Zipf rank out of range");
  // CDF(k) − CDF(k − 1), each as the full table held it (CDF(−1) = 0).
  const std::size_t block = k / kBlock;
  double total = block_start_[block];
  double previous = block == 0 ? 0.0 : block_last_[block - 1];
  for (std::size_t r = block * kBlock; r < k; ++r) {
    total += ZipfTerm(r, exponent_);
    previous = total / total_;
  }
  const double cdf =
      k == n_ - 1 ? 1.0 : (total + ZipfTerm(k, exponent_)) / total_;
  return cdf - previous;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  PHOCUS_CHECK(n > 0, "AliasSampler requires at least one weight");
  double total = 0.0;
  for (double w : weights) {
    PHOCUS_CHECK(w >= 0.0, "AliasSampler weights must be nonnegative");
    total += w;
  }
  PHOCUS_CHECK(total > 0.0, "AliasSampler weights must not all be zero");

  probability_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::size_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) probability_[i] = 1.0;
  for (std::size_t i : small) probability_[i] = 1.0;
}

std::size_t AliasSampler::Sample(Rng& rng) const {
  const std::size_t column = static_cast<std::size_t>(
      rng.NextBelow(probability_.size()));
  return rng.UniformDouble() < probability_[column] ? column : alias_[column];
}

}  // namespace phocus
