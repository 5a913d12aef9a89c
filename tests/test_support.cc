#include "tests/test_support.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/objective.h"
#include "embedding/context.h"
#include "util/logging.h"

namespace phocus {
namespace testing {

ParInstance MakeFigure1Instance(Cost budget) {
  // Photo sizes from Figure 1 (MB → bytes).
  const std::vector<Cost> costs = {1'200'000, 700'000, 2'100'000, 900'000,
                                   800'000,   1'100'000, 1'300'000};
  ParInstance instance(7, costs, budget);

  auto dense = [](std::size_t m) {
    std::vector<float> sim(m * m, 0.0f);
    for (std::size_t i = 0; i < m; ++i) sim[i * m + i] = 1.0f;
    return sim;
  };
  auto set = [](std::vector<float>& sim, std::size_t m, std::size_t i,
                std::size_t j, float value) {
    sim[i * m + j] = value;
    sim[j * m + i] = value;
  };

  {  // q1 = {p1, p2, p3} "Bikes", w = 9.
    Subset q;
    q.name = "Bikes";
    q.weight = 9.0;
    q.members = {0, 1, 2};
    q.relevance = {0.5, 0.3, 0.2};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = dense(3);
    set(q.dense_sim, 3, 0, 1, 0.7f);
    set(q.dense_sim, 3, 0, 2, 0.8f);
    set(q.dense_sim, 3, 1, 2, 0.5f);
    instance.AddSubset(std::move(q));
  }
  {  // q2 = {p4, p5, p6} "Cats", w = 1.
    Subset q;
    q.name = "Cats";
    q.weight = 1.0;
    q.members = {3, 4, 5};
    q.relevance = {0.3, 0.4, 0.3};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = dense(3);
    set(q.dense_sim, 3, 0, 1, 0.7f);
    set(q.dense_sim, 3, 0, 2, 0.4f);
    set(q.dense_sim, 3, 1, 2, 0.7f);
    instance.AddSubset(std::move(q));
  }
  {  // q3 = {p6} "Bookshelf", w = 3.
    Subset q;
    q.name = "Bookshelf";
    q.weight = 3.0;
    q.members = {5};
    q.relevance = {1.0};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = dense(1);
    instance.AddSubset(std::move(q));
  }
  {  // q4 = {p6, p7} "Books", w = 1.
    Subset q;
    q.name = "Books";
    q.weight = 1.0;
    q.members = {5, 6};
    q.relevance = {0.7, 0.3};
    q.sim_mode = Subset::SimMode::kDense;
    q.dense_sim = dense(2);
    set(q.dense_sim, 2, 0, 1, 0.7f);
    instance.AddSubset(std::move(q));
  }
  instance.Validate();
  return instance;
}

ParInstance MakeRandomInstance(std::uint64_t seed,
                               const RandomInstanceOptions& options) {
  Rng rng(seed);
  const auto draw_sim = [&] {
    const float sim = static_cast<float>(rng.UniformDouble());
    if (options.sim_levels <= 0) return sim;
    const float levels = static_cast<float>(options.sim_levels);
    return std::ceil(sim * levels) / levels;
  };
  std::vector<Cost> costs(options.num_photos);
  for (Cost& c : costs) {
    c = static_cast<Cost>(rng.UniformInt(static_cast<std::int64_t>(options.cost_lo),
                                         static_cast<std::int64_t>(options.cost_hi)));
  }
  Cost total = 0;
  for (Cost c : costs) total += c;
  const Cost budget = std::max<Cost>(
      1, static_cast<Cost>(options.budget_fraction * static_cast<double>(total)));
  ParInstance instance(options.num_photos, costs, budget);

  for (std::size_t s = 0; s < options.num_subsets; ++s) {
    const std::size_t size = 2 + rng.NextBelow(options.max_subset_size - 1);
    Subset q;
    q.name = "q" + std::to_string(s);
    q.weight = rng.Uniform(0.2, 5.0);
    for (std::size_t idx :
         rng.SampleWithoutReplacement(options.num_photos,
                                      std::min(size, options.num_photos))) {
      q.members.push_back(static_cast<PhotoId>(idx));
    }
    const std::size_t m = q.members.size();
    q.relevance.resize(m);
    for (double& r : q.relevance) r = rng.Uniform(0.05, 1.0);
    q.sim_mode = options.sim_mode;
    if (options.sim_mode == Subset::SimMode::kDense) {
      q.dense_sim.assign(m * m, 0.0f);
      for (std::size_t i = 0; i < m; ++i) {
        q.dense_sim[i * m + i] = 1.0f;
        for (std::size_t j = i + 1; j < m; ++j) {
          float sim = rng.Bernoulli(options.sim_sparsity) ? 0.0f : draw_sim();
          q.dense_sim[i * m + j] = sim;
          q.dense_sim[j * m + i] = sim;
        }
      }
    } else if (options.sim_mode == Subset::SimMode::kSparse) {
      std::vector<std::vector<std::pair<std::uint32_t, float>>> rows(m);
      for (std::uint32_t i = 0; i < m; ++i) {
        for (std::uint32_t j = i + 1; j < m; ++j) {
          if (rng.Bernoulli(options.sim_sparsity)) continue;
          const float sim = draw_sim();
          if (sim <= 0.0f) continue;  // sparse entries must be in (0, 1]
          rows[i].emplace_back(j, sim);
          rows[j].emplace_back(i, sim);
        }
      }
      q.SetSparseRows(rows);
    }  // kUniform stores nothing
    instance.AddSubset(std::move(q));
  }
  instance.NormalizeRelevance();

  if (options.required_fraction > 0.0) {
    // Required photos are drawn cheapest-first so S0 stays within budget.
    std::vector<PhotoId> by_cost(options.num_photos);
    for (PhotoId p = 0; p < options.num_photos; ++p) by_cost[p] = p;
    std::sort(by_cost.begin(), by_cost.end(), [&](PhotoId a, PhotoId b) {
      return instance.cost(a) < instance.cost(b);
    });
    Cost used = 0;
    const std::size_t want = static_cast<std::size_t>(
        options.required_fraction * static_cast<double>(options.num_photos));
    for (std::size_t i = 0; i < want && i < by_cost.size(); ++i) {
      if (used + instance.cost(by_cost[i]) > budget) break;
      instance.MarkRequired(by_cost[i]);
      used += instance.cost(by_cost[i]);
    }
  }
  instance.Validate();
  return instance;
}

double EnumerateOptimum(const ParInstance& instance) {
  const std::size_t n = instance.num_photos();
  PHOCUS_CHECK(n <= 20, "EnumerateOptimum is exponential; keep n <= 20");
  std::uint32_t required_mask = 0;
  for (PhotoId p = 0; p < n; ++p) {
    if (instance.IsRequired(p)) required_mask |= (1u << p);
  }
  double best = -1.0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if ((mask & required_mask) != required_mask) continue;
    Cost cost = 0;
    for (PhotoId p = 0; p < n; ++p) {
      if (mask & (1u << p)) cost += instance.cost(p);
    }
    if (cost > instance.budget()) continue;
    std::vector<PhotoId> selection;
    for (PhotoId p = 0; p < n; ++p) {
      if (mask & (1u << p)) selection.push_back(p);
    }
    best = std::max(best, ObjectiveEvaluator::Evaluate(instance, selection));
  }
  return best;
}

Subset DenseThresholdedSubset(const Corpus& corpus, const SubsetSpec& spec,
                              const RepresentationOptions& options) {
  const std::size_t m = spec.members.size();
  std::vector<Embedding> embeddings;
  std::vector<ExifMetadata> exif;
  std::vector<std::uint32_t> local_ids;
  for (std::uint32_t i = 0; i < m; ++i) {
    embeddings.push_back(corpus.photos[spec.members[i]].embedding);
    exif.push_back(corpus.photos[spec.members[i]].exif);
    local_ids.push_back(i);
  }
  ContextSimilarityOptions sim_options;
  sim_options.context_normalize = options.context_normalize;
  sim_options.exif_weight = options.exif_weight;
  const std::vector<float> dense =
      SubsetSimilarityMatrix(embeddings, &exif, local_ids, sim_options);
  const float tau = static_cast<float>(options.sparsify_tau);
  std::vector<std::vector<std::pair<std::uint32_t, float>>> rows(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const float s = dense[static_cast<std::size_t>(i) * m + j];
      if (i != j && s >= tau && s > 0.0f) rows[i].emplace_back(j, s);
    }
  }
  Subset subset;
  subset.members = spec.members;
  subset.sim_mode = Subset::SimMode::kSparse;
  subset.SetSparseRows(rows);
  return subset;
}

std::string SparseRowsDiff(const Subset& got, const Subset& want) {
  if (got.sim_mode != Subset::SimMode::kSparse) return "not a sparse subset";
  if (got.sparse_offsets != want.sparse_offsets) {
    return "row offsets differ (nnz " +
           std::to_string(got.sparse_indices.size()) + " vs " +
           std::to_string(want.sparse_indices.size()) + ")";
  }
  if (got.sparse_indices != want.sparse_indices) return "neighbor ids differ";
  // memcmp must not see the null data() of an empty vector.
  if (got.sparse_values.size() != want.sparse_values.size() ||
      (!got.sparse_values.empty() &&
       std::memcmp(got.sparse_values.data(), want.sparse_values.data(),
                   got.sparse_values.size() * sizeof(float)) != 0)) {
    return "similarity bits differ";
  }
  return "";
}

std::string SparseMirrorDiff(const Subset& subset) {
  if (subset.sim_mode != Subset::SimMode::kSparse) return "not a sparse subset";
  const std::uint32_t m = static_cast<std::uint32_t>(subset.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    const SparseSimRow row = subset.sparse_row(i);
    for (std::uint32_t k = 0; k < row.size; ++k) {
      const std::uint32_t j = row.indices[k];
      const std::string entry =
          "(" + std::to_string(i) + ", " + std::to_string(j) + ")";
      if (j >= m) return "entry " + entry + " out of range";
      const SparseSimRow mirror = subset.sparse_row(j);
      const std::uint32_t* end = mirror.indices + mirror.size;
      const std::uint32_t* at = std::find(mirror.indices, end, i);
      if (at == end) return "entry " + entry + " has no mirror";
      if (std::memcmp(&mirror.values[at - mirror.indices], &row.values[k],
                      sizeof(float)) != 0) {
        return "entry " + entry + " differs from its mirror";
      }
    }
  }
  return "";
}

}  // namespace testing
}  // namespace phocus
