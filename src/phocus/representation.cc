#include "phocus/representation.h"

#include <numeric>
#include <optional>

#include "embedding/context.h"
#include "lsh/similar_pairs.h"
#include "util/logging.h"

namespace phocus {

namespace {

/// Gathers per-subset local embedding/EXIF views so the similarity kernels
/// operate on compact indices 0..m-1.
struct SubsetView {
  std::vector<Embedding> embeddings;
  std::vector<ExifMetadata> exif;
};

SubsetView GatherView(const Corpus& corpus, const SubsetSpec& spec,
                      bool with_exif) {
  SubsetView view;
  const std::size_t m = spec.members.size();
  view.embeddings.reserve(m);
  for (const PhotoId p : spec.members) {
    PHOCUS_CHECK(p < corpus.photos.size(), "subset member out of range");
    view.embeddings.push_back(corpus.photos[p].embedding);
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
  // One span for every subset's sweep: a span per subset would flood the
  // trace with thousands of tiny ones.
  std::optional<telemetry::TraceSpan> sweep;
  std::size_t vectors = 0, candidates = 0, outputs = 0;
  if (sparsify) sweep.emplace("representation.sweep");

  for (const SubsetSpec& spec : corpus.subsets) {
    Subset subset;
    subset.name = spec.name;
    subset.weight = spec.weight;
    subset.members = spec.members;
    subset.relevance = spec.relevance;
    const std::size_t m = spec.members.size();
    SubsetView view = GatherView(corpus, spec, with_exif);
    const std::vector<ExifMetadata>* exif = with_exif ? &view.exif : nullptr;
    if (!sparsify) {
      std::vector<std::uint32_t> local_ids(m);
      std::iota(local_ids.begin(), local_ids.end(), 0u);
      subset.sim_mode = Subset::SimMode::kDense;
      subset.dense_sim = SubsetSimilarityMatrix(view.embeddings, exif,
                                                local_ids, sim_options);
    } else {
      SparseSimilarity sparse = SubsetSimilarityAbove(
          view.embeddings, exif, options.sparsify_tau, sim_options);
      subset.sim_mode = Subset::SimMode::kSparse;
      subset.sparse_offsets = std::move(sparse.offsets);
      subset.sparse_indices = std::move(sparse.indices);
      subset.sparse_values = std::move(sparse.values);
      vectors += m;
      candidates += m < 2 ? 0 : m * (m - 1) / 2;
      outputs += subset.sparse_indices.size() / 2;
    }
    instance.AddSubset(std::move(subset));
  }
  if (sweep) {
    sweep->SetAttribute("subsets",
                        static_cast<std::uint64_t>(corpus.subsets.size()));
    internal::ReportPairSearch(*sweep, vectors, candidates, outputs);
    sweep->Close();
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
