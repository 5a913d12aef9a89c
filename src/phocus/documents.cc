#include "phocus/documents.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "embedding/vector_ops.h"
#include "index/search_engine.h"
#include "index/tokenizer.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/rng.h"

namespace phocus {

namespace {

/// Stable term→axis map: top terms by document frequency get dedicated
/// axes; the rest share hashed axes.
struct TermSpace {
  std::unordered_map<std::string, std::size_t> dedicated;
  std::size_t dim = 0;

  std::size_t AxisOf(const std::string& term) const {
    auto it = dedicated.find(term);
    if (it != dedicated.end()) return it->second;
    return static_cast<std::size_t>(Fnv1a64(term, kFnv64TruncatedBasis) %
                                    dim);
  }
};

}  // namespace

Corpus BuildDocumentCorpus(const std::vector<DocumentRecord>& documents,
                           const std::vector<SavedQuery>& queries,
                           const DocumentCorpusOptions& options) {
  PHOCUS_CHECK(!documents.empty(), "need at least one document");
  PHOCUS_CHECK(options.embedding_dim >= 16, "embedding_dim too small");

  // Pass 1: document frequencies and per-document term counts.
  std::unordered_map<std::string, std::size_t> document_frequency;
  std::vector<std::unordered_map<std::string, std::size_t>> term_counts(
      documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    const std::vector<std::string> tokens =
        Tokenize(documents[d].title + " " + documents[d].body);
    for (const std::string& token : tokens) ++term_counts[d][token];
    for (const auto& [token, count] : term_counts[d]) {
      (void)count;
      ++document_frequency[token];
    }
  }

  // Term space: dedicate axes to the highest-df terms.
  TermSpace space;
  space.dim = options.embedding_dim;
  {
    std::vector<std::pair<std::string, std::size_t>> by_df(
        document_frequency.begin(), document_frequency.end());
    std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    const std::size_t dedicated =
        std::min(by_df.size(), options.embedding_dim / 2);
    for (std::size_t i = 0; i < dedicated; ++i) {
      space.dedicated.emplace(by_df[i].first, i);
    }
  }

  // Pass 2: TF-IDF embeddings + the corpus photos (documents).
  Corpus corpus;
  corpus.name = "documents";
  const double n = static_cast<double>(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    CorpusPhoto item;
    item.title = documents[d].title;
    item.bytes = std::max<Cost>(
        1, documents[d].title.size() + documents[d].body.size());
    item.quality = 1.0;
    Embedding vector(options.embedding_dim, 0.0f);
    for (const auto& [token, count] : term_counts[d]) {
      const double idf =
          std::log(1.0 + n / static_cast<double>(document_frequency[token]));
      vector[space.AxisOf(token)] +=
          static_cast<float>((1.0 + std::log(1.0 + count)) * idf);
    }
    NormalizeInPlace(vector);
    item.embedding = std::move(vector);
    corpus.photos.push_back(std::move(item));
  }

  // Pass 3: queries → contexts via BM25.
  SearchEngine engine;
  for (std::size_t d = 0; d < documents.size(); ++d) {
    engine.AddDocument(static_cast<SearchEngine::DocId>(d),
                       documents[d].title + " " + documents[d].body);
  }
  engine.Finalize();
  double total_frequency = 0.0;
  for (const SavedQuery& query : queries) total_frequency += query.frequency;
  for (const SavedQuery& query : queries) {
    PHOCUS_CHECK(query.frequency > 0.0, "query frequency must be positive");
    const auto hits = engine.Search(query.text, query.max_results);
    if (hits.size() < options.min_results) continue;
    SubsetSpec spec;
    spec.name = query.text;
    spec.weight =
        total_frequency > 0.0 ? query.frequency / total_frequency : 1.0;
    for (const SearchEngine::Hit& hit : hits) {
      spec.members.push_back(hit.doc);
      spec.relevance.push_back(hit.score);
    }
    corpus.subsets.push_back(std::move(spec));
  }
  return corpus;
}

}  // namespace phocus
