#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <unordered_set>

#include "datagen/corpus_io.h"
#include "datagen/corpus_ops.h"
#include "datagen/ecommerce.h"
#include "datagen/openimages.h"
#include "datagen/table2.h"
#include "datagen/vocabulary.h"
#include "embedding/vector_ops.h"
#include "service/protocol.h"
#include "util/logging.h"

namespace phocus {
namespace {

OpenImagesOptions SmallOpenImagesOptions(std::uint64_t seed) {
  OpenImagesOptions options;
  options.num_photos = 150;
  options.seed = seed;
  options.render_size = 32;
  return options;
}

EcommerceOptions SmallEcommerceOptions(std::uint64_t seed) {
  EcommerceOptions options;
  options.domain = EcDomain::kFashion;
  options.num_products = 400;
  options.num_queries = 40;
  options.seed = seed;
  options.render_size = 32;
  return options;
}

// --------------------------------------------------------- vocabulary ----

TEST(VocabularyTest, LabelsAreDistinct) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < 3000; ++i) labels.push_back(LabelName(i));
  ASSERT_EQ(labels.size(), 3000u);
  std::set<std::string> unique(labels.begin(), labels.end());
  EXPECT_EQ(unique.size(), labels.size());
}

TEST(VocabularyTest, LabelGenerationIsDeterministic) {
  for (std::size_t i = 0; i < 500; ++i) EXPECT_EQ(LabelName(i), LabelName(i));
}

/// The label vocabulary as the generator used to materialize it: nested
/// loops over the word lists, tier by tier, skipping repeated adjectives.
/// Calls `visit` once per label, in vocabulary order.
void EnumerateLabelsReference(
    const std::vector<std::string>& nouns,
    const std::vector<std::string>& adjectives,
    const std::vector<std::string>& suffixes,
    const std::function<void(const std::string&)>& visit) {
  for (const std::string& noun : nouns) visit(noun);
  for (const std::string& adjective : adjectives) {
    for (const std::string& noun : nouns) visit(adjective + " " + noun);
  }
  for (const std::string& adjective : adjectives) {
    for (const std::string& noun : suffixes) visit(adjective + " " + noun);
  }
  for (std::size_t first = 0; first < adjectives.size(); ++first) {
    for (std::size_t second = 0; second < adjectives.size(); ++second) {
      if (first == second) continue;
      const std::string prefix = adjectives[first] + " " + adjectives[second];
      for (const std::string& noun : nouns) visit(prefix + " " + noun);
      for (const std::string& noun : suffixes) visit(prefix + " " + noun);
    }
  }
  for (std::size_t first = 0; first < adjectives.size(); ++first) {
    for (std::size_t second = 0; second < adjectives.size(); ++second) {
      for (std::size_t third = 0; third < adjectives.size(); ++third) {
        if (first == second || second == third || first == third) continue;
        for (const std::string& noun : nouns) {
          visit(adjectives[first] + " " + adjectives[second] + " " +
                adjectives[third] + " " + noun);
        }
      }
    }
  }
}

TEST(VocabularyTest, LabelNameMatchesNestedLoopEnumeration) {
  // The word lists, read off the single-word tiers: 60 seed nouns, then 24
  // adjective rows of 60 nouns, then 24 rows of 20 suffix nouns.
  const auto word = [](const std::string& label, std::size_t n) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < n; ++i) begin = label.find(' ', begin) + 1;
    return label.substr(begin, label.find(' ', begin) - begin);
  };
  std::vector<std::string> nouns, adjectives, suffixes;
  for (std::size_t i = 0; i < 60; ++i) nouns.push_back(LabelName(i));
  for (std::size_t a = 0; a < 24; ++a) {
    adjectives.push_back(word(LabelName(60 + a * 60), 0));
  }
  for (std::size_t s = 0; s < 20; ++s) {
    suffixes.push_back(word(LabelName(60 + 24 * 60 + s), 1));
  }
  EXPECT_EQ(nouns.front(), "cat");
  EXPECT_EQ(adjectives.front(), "red");
  EXPECT_EQ(adjectives.back(), "angular");
  EXPECT_EQ(suffixes.front(), "kettle");
  EXPECT_EQ(suffixes.back(), "bench");

  std::size_t index = 0;
  std::size_t mismatches = 0;
  EnumerateLabelsReference(nouns, adjectives, suffixes,
                           [&](const std::string& expected) {
                             if (LabelName(index) != expected &&
                                 ++mismatches <= 5) {
                               ADD_FAILURE() << "index " << index << ": "
                                             << LabelName(index)
                                             << " != " << expected;
                             }
                             ++index;
                           });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(index, kLabelVocabularyCapacity);
  EXPECT_EQ(LabelName(kLabelVocabularyCapacity - 1),
            "angular curved pale portrait");
}

TEST(VocabularyTest, LabelNamePastCapacityThrows) {
  EXPECT_THROW(LabelName(kLabelVocabularyCapacity), CheckFailure);
}

TEST(VocabularyTest, DomainVocabulariesAreNonEmptyAndDistinct) {
  for (EcDomain domain : {EcDomain::kFashion, EcDomain::kElectronics,
                          EcDomain::kHomeGarden}) {
    const EcVocabulary& v = VocabularyFor(domain);
    EXPECT_GE(v.product_types.size(), 20u);
    EXPECT_GE(v.brands.size(), 10u);
    EXPECT_FALSE(v.colors.empty());
    EXPECT_FALSE(EcDomainName(domain).empty());
  }
  EXPECT_NE(VocabularyFor(EcDomain::kFashion).product_types[0],
            VocabularyFor(EcDomain::kElectronics).product_types[0]);
}

// -------------------------------------------------------- open images ----

TEST(OpenImagesTest, ProducesRequestedPhotoCount) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(1));
  EXPECT_EQ(corpus.num_photos(), 150u);
  EXPECT_FALSE(corpus.subsets.empty());
}

TEST(OpenImagesTest, IsDeterministicInSeed) {
  const Corpus a = GenerateOpenImagesCorpus(SmallOpenImagesOptions(5));
  const Corpus b = GenerateOpenImagesCorpus(SmallOpenImagesOptions(5));
  ASSERT_EQ(a.num_photos(), b.num_photos());
  for (std::size_t i = 0; i < a.num_photos(); ++i) {
    EXPECT_EQ(a.photos[i].bytes, b.photos[i].bytes);
    EXPECT_EQ(a.photos[i].embedding, b.photos[i].embedding);
  }
  ASSERT_EQ(a.subsets.size(), b.subsets.size());
  const Corpus c = GenerateOpenImagesCorpus(SmallOpenImagesOptions(6));
  EXPECT_NE(a.photos[0].bytes, c.photos[0].bytes);
}

TEST(OpenImagesTest, SubsetsAreWellFormed) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(7));
  for (const SubsetSpec& spec : corpus.subsets) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GT(spec.weight, 0.0);
    EXPECT_EQ(spec.members.size(), spec.relevance.size());
    EXPECT_FALSE(spec.members.empty());
    std::set<PhotoId> unique(spec.members.begin(), spec.members.end());
    EXPECT_EQ(unique.size(), spec.members.size()) << spec.name;
    for (double r : spec.relevance) {
      EXPECT_GT(r, 0.0);
      EXPECT_LE(r, 1.0);
    }
  }
}

TEST(OpenImagesTest, EveryPhotoHasPositiveCostAndUnitEmbedding) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(9));
  for (const CorpusPhoto& photo : corpus.photos) {
    EXPECT_GT(photo.bytes, 0u);
    EXPECT_NEAR(Norm(photo.embedding), 1.0, 1e-4);
    EXPECT_GE(photo.quality, 0.0);
    EXPECT_LE(photo.quality, 1.0);
    EXPECT_FALSE(photo.title.empty());
  }
}

TEST(OpenImagesTest, CostsAreHeterogeneous) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(11));
  Cost min_cost = corpus.photos[0].bytes, max_cost = corpus.photos[0].bytes;
  for (const CorpusPhoto& photo : corpus.photos) {
    min_cost = std::min(min_cost, photo.bytes);
    max_cost = std::max(max_cost, photo.bytes);
  }
  EXPECT_GT(max_cost, 3 * min_cost);  // resolution tiers + content entropy
}

TEST(OpenImagesTest, NearDuplicatesShareLabelsAndLookAlike) {
  OpenImagesOptions options = SmallOpenImagesOptions(13);
  options.near_duplicate_prob = 1.0;  // every photo after the first chains
  options.num_photos = 10;
  const Corpus corpus = GenerateOpenImagesCorpus(options);
  for (std::size_t i = 1; i < corpus.num_photos(); ++i) {
    EXPECT_GT(CosineSimilarity(corpus.photos[i - 1].embedding,
                               corpus.photos[i].embedding),
              0.7);
  }
}

TEST(OpenImagesTest, RequiredFractionIsHonored) {
  OpenImagesOptions options = SmallOpenImagesOptions(15);
  options.required_fraction = 0.1;
  const Corpus corpus = GenerateOpenImagesCorpus(options);
  EXPECT_EQ(corpus.required.size(), 15u);
  std::set<PhotoId> unique(corpus.required.begin(), corpus.required.end());
  EXPECT_EQ(unique.size(), corpus.required.size());
}

TEST(OpenImagesTest, RejectsVocabularyOutsideTheGeneratorsRange) {
  OpenImagesOptions options = SmallOpenImagesOptions(16);
  options.num_photos = 4;
  options.vocabulary_size = 0;
  EXPECT_THROW(GenerateOpenImagesCorpus(options), CheckFailure);
  options.vocabulary_size = kLabelVocabularyCapacity + 1;
  try {
    GenerateOpenImagesCorpus(options);
    FAIL() << "expected CheckFailure for an oversized vocabulary";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what())
                  .find("requested vocabulary larger than the generator can "
                        "produce"),
              std::string::npos);
  }
  options.vocabulary_size = kLabelVocabularyCapacity;
  EXPECT_EQ(GenerateOpenImagesCorpus(options).num_photos(), 4u);
}

TEST(OpenImagesTest, EncodedCorpusMatchesPinnedChecksums) {
  // FNV-1a of EncodeCorpus at the generator's defaults (the options phocusd
  // generates arrivals and openimages sessions with). Recorded while label
  // names still came from a materialized vocabulary table: naming labels on
  // demand must not move a byte of any corpus, fixture or WAL fingerprint.
  struct Pin {
    std::size_t photos;
    std::uint64_t seed;
    std::uint64_t checksum;
  };
  for (const Pin& pin : {Pin{1, 1, 0x6eaf7c3da784161dULL},
                         Pin{1, 7, 0x57351864f23ee388ULL},
                         Pin{16, 1, 0xe5f656eb56e1accfULL},
                         Pin{16, 7, 0x2c4a9818653d1b5aULL},
                         Pin{600, 1, 0x26ee5cba805b6624ULL},
                         Pin{600, 7, 0xdc6860bc967c89baULL}}) {
    OpenImagesOptions options;
    options.num_photos = pin.photos;
    options.seed = pin.seed;
    EXPECT_EQ(service::Fnv64(EncodeCorpus(GenerateOpenImagesCorpus(options))),
              pin.checksum)
        << pin.photos << " photos, seed " << pin.seed;
  }
}

// ---------------------------------------------------------- ecommerce ----

TEST(EcommerceTest, ProducesExactlyTheRequestedLandingPages) {
  const Corpus corpus = GenerateEcommerceCorpus(SmallEcommerceOptions(1));
  EXPECT_EQ(corpus.num_photos(), 400u);
  EXPECT_EQ(corpus.subsets.size(), 40u);  // Table 2: exact page count
}

TEST(EcommerceTest, PageWeightsAreNormalizedFrequencies) {
  const Corpus corpus = GenerateEcommerceCorpus(SmallEcommerceOptions(2));
  double total = 0.0;
  for (const SubsetSpec& spec : corpus.subsets) {
    EXPECT_GT(spec.weight, 0.0);
    total += spec.weight;
  }
  EXPECT_LE(total, 1.0 + 1e-9);  // subset of the full query log's mass
}

TEST(EcommerceTest, PagesHaveRetrievalRankedMembers) {
  const Corpus corpus = GenerateEcommerceCorpus(SmallEcommerceOptions(3));
  for (const SubsetSpec& spec : corpus.subsets) {
    EXPECT_GE(spec.members.size(), 3u);
    EXPECT_LE(spec.members.size(), 120u);
    // Relevance follows the (quality-blended) retrieval score: positive.
    for (double r : spec.relevance) EXPECT_GT(r, 0.0);
  }
}

TEST(EcommerceTest, RequiredPhotosAppearOnPages) {
  EcommerceOptions options = SmallEcommerceOptions(4);
  options.required_fraction = 0.02;
  const Corpus corpus = GenerateEcommerceCorpus(options);
  EXPECT_FALSE(corpus.required.empty());
  std::unordered_set<PhotoId> on_pages;
  for (const SubsetSpec& spec : corpus.subsets) {
    on_pages.insert(spec.members.begin(), spec.members.end());
  }
  for (PhotoId p : corpus.required) EXPECT_TRUE(on_pages.count(p));
}

TEST(EcommerceTest, TitlesContainDomainProductTypes) {
  const Corpus corpus = GenerateEcommerceCorpus(SmallEcommerceOptions(5));
  const EcVocabulary& v = VocabularyFor(EcDomain::kFashion);
  int matches = 0;
  for (const CorpusPhoto& photo : corpus.photos) {
    for (const std::string& type : v.product_types) {
      if (photo.title.find(type) != std::string::npos) {
        ++matches;
        break;
      }
    }
  }
  EXPECT_EQ(matches, static_cast<int>(corpus.num_photos()));
}

TEST(QueryLogTest, DistinctQueriesWithDescendingFrequencies) {
  const auto log = GenerateQueryLog(EcDomain::kElectronics, 100, 9);
  ASSERT_EQ(log.size(), 100u);
  std::set<std::string> unique;
  for (std::size_t i = 0; i < log.size(); ++i) {
    unique.insert(log[i].text);
    if (i > 0) {
      EXPECT_GE(log[i - 1].frequency, log[i].frequency);
    }
    EXPECT_GT(log[i].frequency, 0.0);
  }
  EXPECT_EQ(unique.size(), log.size());
}

TEST(QueryLogTest, DeterministicInSeed) {
  const auto a = GenerateQueryLog(EcDomain::kFashion, 50, 1);
  const auto b = GenerateQueryLog(EcDomain::kFashion, 50, 1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
}

// --------------------------------------------------------- corpus ops ----

TEST(CorpusOpsTest, RestrictRemapsIdsAndDropsTinySubsets) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(21));
  const std::vector<PhotoId> keep = {3, 10, 20, 30, 40, 50, 60, 70};
  const Corpus restricted = RestrictCorpus(corpus, keep, 2);
  EXPECT_EQ(restricted.num_photos(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(restricted.photos[i].bytes, corpus.photos[keep[i]].bytes);
  }
  for (const SubsetSpec& spec : restricted.subsets) {
    EXPECT_GE(spec.members.size(), 2u);
    for (PhotoId p : spec.members) EXPECT_LT(p, keep.size());
  }
}

TEST(CorpusOpsTest, RestrictRejectsDuplicatesAndOutOfRange) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(23));
  EXPECT_THROW(RestrictCorpus(corpus, {1, 1}), CheckFailure);
  EXPECT_THROW(RestrictCorpus(corpus, {100000}), CheckFailure);
}

TEST(CorpusOpsTest, SubsampleKeepsRequestedCount) {
  const Corpus corpus = GenerateOpenImagesCorpus(SmallOpenImagesOptions(25));
  Rng rng(1);
  const Corpus sample = SubsampleCorpus(corpus, 50, rng);
  EXPECT_EQ(sample.num_photos(), 50u);
  EXPECT_THROW(SubsampleCorpus(corpus, 100000, rng), CheckFailure);
}

// ------------------------------------------------------------- table2 ----

TEST(Table2Test, NamesRoundTripThroughTheBuilder) {
  EXPECT_EQ(Table2DatasetNames().size(), 8u);
  // Use heavy downscaling so the test stays fast.
  const Corpus p1k = BuildTable2Corpus("P-1K", /*scale=*/10);
  EXPECT_EQ(p1k.name, "P-1K");
  EXPECT_EQ(p1k.num_photos(), 100u);
  EXPECT_THROW(BuildTable2Corpus("no-such-dataset"), CheckFailure);
}

}  // namespace
}  // namespace phocus
