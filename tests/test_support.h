#ifndef PHOCUS_TESTS_TEST_SUPPORT_H_
#define PHOCUS_TESTS_TEST_SUPPORT_H_

#include <string>
#include <vector>

#include "core/instance.h"
#include "datagen/corpus.h"
#include "phocus/representation.h"
#include "util/rng.h"

/// \file test_support.h
/// Shared instance builders for the test suite.

namespace phocus {
namespace testing {

/// The paper's running example (Figure 1): seven photos p1..p7 (ids 0..6),
/// four pre-defined subsets ("Bikes" w=9, "Cats" w=1, "Bookshelf" w=3,
/// "Books" w=1) with the published relevance and similarity values. Costs
/// are in bytes (1.2 MB = 1'200'000 etc.); `budget` defaults to fitting
/// everything.
ParInstance MakeFigure1Instance(Cost budget = 8'100'000);

/// A random dense PAR instance for property tests: `n` photos with costs in
/// [cost_lo, cost_hi], `m` subsets of size in [2, max_subset], random
/// relevance, random symmetric similarities, budget = `budget_fraction` of
/// the total cost. Deterministic in `seed`.
struct RandomInstanceOptions {
  std::size_t num_photos = 12;
  std::size_t num_subsets = 6;
  std::size_t max_subset_size = 6;
  Cost cost_lo = 10;
  Cost cost_hi = 100;
  double budget_fraction = 0.4;
  double required_fraction = 0.0;
  double sim_sparsity = 0.0;  ///< fraction of off-diagonal sims forced to 0
  /// When > 0, off-diagonal sims are rounded up to multiples of
  /// 1/sim_levels, so many members tie for their best neighbor.
  int sim_levels = 0;
  /// Similarity storage for the generated subsets: kDense keeps the full
  /// matrix, kSparse stores the same nonzero entries as CSR neighbor lists
  /// (combine with sim_sparsity for genuinely sparse rows), kUniform drops
  /// the values entirely (SIM ≡ 1).
  Subset::SimMode sim_mode = Subset::SimMode::kDense;
};
ParInstance MakeRandomInstance(std::uint64_t seed,
                               const RandomInstanceOptions& options = {});

/// Exhaustive optimum by bitmask enumeration (only for tiny instances,
/// n <= 20): independent cross-check for the branch-and-bound solver.
double EnumerateOptimum(const ParInstance& instance);

/// The τ-graph oracle for one sparsified subset: `spec`'s dense contextual
/// matrix (SubsetSimilarityMatrix under `options`, the PHOcus-NS SIM)
/// thresholded at options.sparsify_tau — off-diagonal entries s with
/// s >= float(τ) and s > 0 — as ascending CSR rows.
Subset DenseThresholdedSubset(const Corpus& corpus, const SubsetSpec& spec,
                              const RepresentationOptions& options);

/// Empty iff `got` holds exactly `want`'s CSR arrays, value bits included;
/// otherwise what differs.
std::string SparseRowsDiff(const Subset& got, const Subset& want);

/// Empty iff `subset`'s CSR is mirrored bit for bit (every entry (i, j) has
/// an entry (j, i) with the same value bits), checked entry by entry with a
/// lookup into the other row; otherwise the first entry without a mirror.
std::string SparseMirrorDiff(const Subset& subset);

}  // namespace testing
}  // namespace phocus

#endif  // PHOCUS_TESTS_TEST_SUPPORT_H_
