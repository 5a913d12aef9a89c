#ifndef PHOCUS_DATAGEN_VOCABULARY_H_
#define PHOCUS_DATAGEN_VOCABULARY_H_

#include <cstddef>
#include <string>
#include <vector>

/// \file vocabulary.h
/// Word lists used by the generators: an Open-Images-like label vocabulary
/// (synthesized adjective×noun combinations on top of a curated seed list,
/// so the vocabulary can reach the thousands of labels the real dataset
/// has), and per-domain e-commerce vocabularies (product types, brands,
/// attributes) plus query templates.

namespace phocus {

/// Number of distinct label names `LabelName` can produce: 60 seed nouns,
/// then adjective×noun, adjective×suffix-noun, two distinct adjectives ×
/// (noun | suffix-noun) and three distinct adjectives × noun.
inline constexpr std::size_t kLabelVocabularyCapacity = 774780;

/// The `index`-th label name of the Open-Images-like vocabulary, computed on
/// demand (no table is materialized). The first entries are curated single
/// nouns ("cat", "bicycle", ...); the tail is adjective+noun combinations
/// ("striped kettle"). Distinct for distinct indices and deterministic.
/// Throws CheckFailure for `index >= kLabelVocabularyCapacity`.
std::string LabelName(std::size_t index);

/// E-commerce domains used by the paper's user study.
enum class EcDomain { kFashion, kElectronics, kHomeGarden };

std::string EcDomainName(EcDomain domain);

struct EcVocabulary {
  std::vector<std::string> product_types;
  std::vector<std::string> brands;
  std::vector<std::string> colors;
  std::vector<std::string> attributes;   ///< e.g. "wireless", "buttoned"
  std::vector<std::string> audiences;    ///< e.g. "women's", "kids"
};

/// The curated vocabulary for one domain.
const EcVocabulary& VocabularyFor(EcDomain domain);

}  // namespace phocus

#endif  // PHOCUS_DATAGEN_VOCABULARY_H_
