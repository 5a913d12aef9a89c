#include "phocus/representation.h"

#include <numeric>
#include <optional>

#include "embedding/context.h"
#include "lsh/similar_pairs.h"
#include "util/logging.h"

namespace phocus {

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

  // Each subset's members are gathered into one row-major matrix, with
  // one buffer reused across subsets: it only grows, so the build's block
  // sizes stay stable under glibc's dynamic mmap threshold.
  std::vector<float> rows;
  std::vector<ExifMetadata> exif;
  for (const SubsetSpec& spec : corpus.subsets) {
    Subset subset;
    subset.name = spec.name;
    subset.weight = spec.weight;
    subset.members = spec.members;
    subset.relevance = spec.relevance;
    const std::size_t m = spec.members.size();
    exif.clear();
    for (const PhotoId p : spec.members) {
      PHOCUS_CHECK(p < corpus.photos.size(), "subset member out of range");
      if (with_exif) exif.push_back(corpus.photos[p].exif);
    }
    const std::vector<ExifMetadata>* subset_exif =
        with_exif ? &exif : nullptr;
    if (!sparsify) {
      // SubsetSimilarityMatrix reads Embedding vectors by local id.
      std::vector<Embedding> embeddings;
      embeddings.reserve(m);
      for (const PhotoId p : spec.members) {
        embeddings.push_back(corpus.photos[p].embedding);
      }
      std::vector<std::uint32_t> local_ids(m);
      std::iota(local_ids.begin(), local_ids.end(), 0u);
      subset.sim_mode = Subset::SimMode::kDense;
      subset.dense_sim = SubsetSimilarityMatrix(embeddings, subset_exif,
                                                local_ids, sim_options);
    } else {
      const RowMatrix matrix = GatherRows(
          m,
          [&](std::size_t k) -> const Embedding& {
            return corpus.photos[spec.members[k]].embedding;
          },
          rows);
      SparseSimilarity sparse = SubsetSimilarityAbove(
          matrix, subset_exif, options.sparsify_tau, sim_options);
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
