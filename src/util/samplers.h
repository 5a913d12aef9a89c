#ifndef PHOCUS_UTIL_SAMPLERS_H_
#define PHOCUS_UTIL_SAMPLERS_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

/// \file samplers.h
/// Discrete distribution samplers used by the dataset generators.

namespace phocus {

/// Zipf(s) distribution over ranks {0, ..., n-1}: P(k) ∝ 1/(k+1)^s.
///
/// Query-log frequencies and label popularities are famously Zipfian, which
/// is what gives the paper's predefined-subset weights their skew.
///
/// The CDF is not stored. The sampler keeps, per block of kBlock ranks, the
/// running total before the block and the CDF at the block's last rank;
/// Sample and Probability re-sum one block with the constructor's own
/// expression, so both are bit-equal to a full cumulative table while the
/// state stays 2·⌈n/kBlock⌉ doubles (12.5 KB at n = 200 000).
class ZipfSampler {
 public:
  /// Ranks per checkpoint block: the most terms one Sample or Probability
  /// call re-sums.
  static constexpr std::size_t kBlock = 256;

  /// \param n number of ranks (> 0)
  /// \param exponent the skew parameter s (>= 0; 0 gives uniform)
  ZipfSampler(std::size_t n, double exponent);

  /// The process-wide sampler for (n, exponent): built once on first use,
  /// never destroyed, and immutable, so any thread may draw from it.
  static const ZipfSampler& Shared(std::size_t n, double exponent);

  /// Draws one rank in [0, n).
  std::size_t Sample(Rng& rng) const;

  /// Probability mass of rank k.
  double Probability(std::size_t k) const;

  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  double exponent_;
  double total_;  // sum of all n terms
  std::vector<double> block_start_;  // running total before each block
  std::vector<double> block_last_;   // CDF at each block's last rank; back() == 1
};

/// Walker alias method for O(1) sampling from an arbitrary discrete
/// distribution (weights need not be normalized).
class AliasSampler {
 public:
  explicit AliasSampler(const std::vector<double>& weights);

  std::size_t Sample(Rng& rng) const;
  std::size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;
  std::vector<std::size_t> alias_;
};

}  // namespace phocus

#endif  // PHOCUS_UTIL_SAMPLERS_H_
