#include "phocus/representation.h"

#include <algorithm>
#include <numeric>

#include "embedding/context.h"
#include "lsh/similar_pairs.h"
#include "util/logging.h"

namespace phocus {

namespace {

/// Subsets with more members than this skip the dense contextual matrix
/// when sparsifying and take raw-cosine pairs from AllPairsAbove instead.
constexpr std::size_t kLargeSubsetMembers = 192;

/// Gathers per-subset local embedding/EXIF views so the similarity kernels
/// operate on compact indices.
struct SubsetView {
  std::vector<Embedding> embeddings;
  std::vector<ExifMetadata> exif;
  std::vector<std::uint32_t> local_ids;  // 0..m-1
};

SubsetView GatherView(const Corpus& corpus, const SubsetSpec& spec,
                      bool with_exif) {
  SubsetView view;
  const std::size_t m = spec.members.size();
  view.embeddings.reserve(m);
  view.local_ids.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const PhotoId p = spec.members[i];
    PHOCUS_CHECK(p < corpus.photos.size(), "subset member out of range");
    view.embeddings.push_back(corpus.photos[p].embedding);
    view.local_ids.push_back(i);
  }
  if (with_exif) {
    view.exif.reserve(m);
    for (PhotoId p : spec.members) view.exif.push_back(corpus.photos[p].exif);
  }
  return view;
}

}  // namespace

ParInstance BuildInstance(const Corpus& corpus, Cost budget,
                          const RepresentationOptions& options,
                          LshIndexCache* /*unused*/) {
  std::vector<Cost> costs;
  costs.reserve(corpus.photos.size());
  for (const CorpusPhoto& photo : corpus.photos) costs.push_back(photo.bytes);
  ParInstance instance(corpus.photos.size(), std::move(costs), budget);
  for (PhotoId p : corpus.required) instance.MarkRequired(p);

  ContextSimilarityOptions sim_options;
  sim_options.context_normalize = options.context_normalize;
  sim_options.exif_weight = options.exif_weight;
  const bool with_exif = options.exif_weight > 0.0;
  const bool sparsify = options.sparsify_tau > 0.0;

  for (const SubsetSpec& spec : corpus.subsets) {
    Subset subset;
    subset.name = spec.name;
    subset.weight = spec.weight;
    subset.members = spec.members;
    subset.relevance = spec.relevance;
    const std::size_t m = spec.members.size();

    if (!sparsify || m <= kLargeSubsetMembers) {
      SubsetView view = GatherView(corpus, spec, with_exif);
      std::vector<float> dense = SubsetSimilarityMatrix(
          view.embeddings, with_exif ? &view.exif : nullptr, view.local_ids,
          sim_options);
      if (!sparsify) {
        subset.sim_mode = Subset::SimMode::kDense;
        subset.dense_sim = std::move(dense);
      } else {
        // τ-threshold the small-subset dense matrix into neighbor lists.
        subset.sim_mode = Subset::SimMode::kSparse;
        // Rows come out in order, so fill the CSR arrays directly.
        subset.sparse_offsets.reserve(m + 1);
        subset.sparse_offsets.push_back(0);
        const float tau = static_cast<float>(options.sparsify_tau);
        for (std::uint32_t i = 0; i < m; ++i) {
          for (std::uint32_t j = 0; j < m; ++j) {
            if (i == j) continue;
            const float s = dense[static_cast<std::size_t>(i) * m + j];
            if (s >= tau && s > 0.0f) {
              subset.sparse_indices.push_back(j);
              subset.sparse_values.push_back(s);
            }
          }
          subset.sparse_offsets.push_back(
              static_cast<std::uint32_t>(subset.sparse_indices.size()));
        }
      }
    } else {
      // Large subset: every raw-cosine pair >= τ from one exact sweep.
      // Context renormalization needs the exact max pairwise distance, which
      // is the dense matrix this path avoids materializing.
      SubsetView view = GatherView(corpus, spec, /*with_exif=*/false);
      const std::vector<SimilarPair> pairs =
          AllPairsAbove(view.embeddings, options.sparsify_tau);
      subset.sim_mode = Subset::SimMode::kSparse;
      // Fill the CSR arrays in place, without per-row vectors. Pairs arrive
      // in (first, second) order, so each row fills in ascending order.
      std::vector<std::uint32_t>& offsets = subset.sparse_offsets;
      offsets.assign(m + 1, 0);
      for (const SimilarPair& pair : pairs) {
        ++offsets[pair.first + 1];
        ++offsets[pair.second + 1];
      }
      std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
      subset.sparse_indices.resize(offsets[m]);
      subset.sparse_values.resize(offsets[m]);
      std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
      for (const SimilarPair& pair : pairs) {
        const float s = std::min(1.0f, pair.similarity);
        subset.sparse_indices[next[pair.first]] = pair.second;
        subset.sparse_values[next[pair.first]++] = s;
        subset.sparse_indices[next[pair.second]] = pair.first;
        subset.sparse_values[next[pair.second]++] = s;
      }
    }
    instance.AddSubset(std::move(subset));
  }
  instance.NormalizeRelevance();
  return instance;
}

ParInstance BuildNonContextualInstance(const Corpus& corpus, Cost budget) {
  RepresentationOptions options;
  options.context_normalize = false;
  options.sparsify_tau = 0.0;
  return BuildInstance(corpus, budget, options);
}

}  // namespace phocus
