#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/baselines.h"
#include "core/celf.h"
#include "core/objective.h"
#include "datagen/openimages.h"
#include "imaging/exif.h"
#include "kernels/kernels.h"
#include "phocus/instance_io.h"
#include "phocus/representation.h"
#include "phocus/system.h"
#include "service/protocol.h"
#include "tests/test_support.h"
#include "util/logging.h"
#include "util/strings.h"

namespace phocus {
namespace {

Corpus SmallCorpus(std::uint64_t seed, std::size_t photos = 120) {
  OpenImagesOptions options;
  options.num_photos = photos;
  options.seed = seed;
  options.render_size = 32;
  return GenerateOpenImagesCorpus(options);
}

// ----------------------------------------------------- representation ----

TEST(RepresentationTest, DenseInstanceValidates) {
  const Corpus corpus = SmallCorpus(1);
  RepresentationOptions options;
  options.sparsify_tau = 0.0;
  const ParInstance instance =
      BuildInstance(corpus, corpus.TotalBytes() / 4, options);
  instance.Validate();
  EXPECT_EQ(instance.num_photos(), corpus.num_photos());
  EXPECT_EQ(instance.num_subsets(), corpus.subsets.size());
  for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
    EXPECT_EQ(instance.subset(q).sim_mode, Subset::SimMode::kDense);
  }
}

TEST(RepresentationTest, SparseInstanceDropsWeakPairsOnly) {
  const Corpus corpus = SmallCorpus(2);
  RepresentationOptions dense_options;
  dense_options.sparsify_tau = 0.0;
  RepresentationOptions sparse_options;
  sparse_options.sparsify_tau = 0.6;
  const Cost budget = corpus.TotalBytes() / 4;
  const ParInstance dense = BuildInstance(corpus, budget, dense_options);
  const ParInstance sparse = BuildInstance(corpus, budget, sparse_options);
  sparse.Validate();
  EXPECT_LE(sparse.CountSimEntries(), dense.CountSimEntries());
  // Spot-check: every sparse entry matches its dense counterpart and is
  // >= tau; every dropped dense entry is < tau.
  for (SubsetId qi = 0; qi < dense.num_subsets(); ++qi) {
    const Subset& dq = dense.subset(qi);
    const Subset& sq = sparse.subset(qi);
    ASSERT_EQ(sq.sim_mode, Subset::SimMode::kSparse);
    for (std::uint32_t i = 0; i < dq.size(); ++i) {
      for (std::uint32_t j = 0; j < dq.size(); ++j) {
        if (i == j) continue;
        const double ds = dq.Similarity(i, j);
        const double ss = sq.Similarity(i, j);
        if (ds >= 0.6) {
          EXPECT_NEAR(ss, ds, 1e-6);
        } else {
          EXPECT_DOUBLE_EQ(ss, 0.0);
        }
      }
    }
  }
}

TEST(RepresentationTest, NonContextualDiffersFromContextual) {
  const Corpus corpus = SmallCorpus(3);
  const Cost budget = corpus.TotalBytes() / 4;
  RepresentationOptions contextual;
  contextual.sparsify_tau = 0.0;
  const ParInstance ctx = BuildInstance(corpus, budget, contextual);
  const ParInstance raw = BuildNonContextualInstance(corpus, budget);
  // Context renormalization must actually change similarities somewhere.
  bool any_difference = false;
  for (SubsetId q = 0; q < ctx.num_subsets() && !any_difference; ++q) {
    const Subset& a = ctx.subset(q);
    const Subset& b = raw.subset(q);
    for (std::uint32_t i = 0; i < a.size() && !any_difference; ++i) {
      for (std::uint32_t j = i + 1; j < a.size(); ++j) {
        if (std::abs(a.Similarity(i, j) - b.Similarity(i, j)) > 1e-3) {
          any_difference = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RepresentationTest, LargeSubsetPathProducesValidSparseInstance) {
  // Some subset exceeds 192 members; every subset, whatever its size,
  // must carry the thresholded dense contextual matrix.
  const Corpus corpus = SmallCorpus(4, 600);
  ASSERT_TRUE(std::any_of(
      corpus.subsets.begin(), corpus.subsets.end(),
      [](const SubsetSpec& spec) { return spec.members.size() > 192; }));
  RepresentationOptions options;
  options.sparsify_tau = 0.7;
  const ParInstance instance =
      BuildInstance(corpus, corpus.TotalBytes() / 4, options);
  instance.Validate();
  for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
    EXPECT_EQ(testing::SparseRowsDiff(
                  instance.subset(q), testing::DenseThresholdedSubset(
                                          corpus, corpus.subsets[q], options)),
              "")
        << corpus.subsets[q].name;
  }
  CelfSolver solver;
  CheckFeasible(instance, solver.Solve(instance));
}

// ------------------------------------------------ representation oracle ----
// Every τ-sparsified subset must be the dense contextual matrix thresholded
// at τ, bit for bit, whatever its size. Also registered as ctest
// `representation_oracle_t{1,4}` under PHOCUS_NUM_THREADS 1 and 4, since
// large sweeps fan out on the global pool.

/// 300 photos (d = 32) in 30 tight clusters with per-cluster EXIF, one
/// zero embedding and one exact duplicate; subsets of m ∈ {1, 2, 9, 192,
/// 193, 300} members, each walking the photos with its own stride.
Corpus OracleCorpus() {
  constexpr std::size_t kPhotos = 300, kDim = 32;
  Rng rng(717);
  Corpus corpus;
  for (std::size_t c = 0; c < 30; ++c) {
    Embedding center(kDim);
    for (float& x : center) x = static_cast<float>(rng.Normal());
    const std::int64_t when = 1'600'000'000 + static_cast<std::int64_t>(c) * 86'400;
    const double lat = rng.Uniform(-60.0, 60.0), lon = rng.Uniform(-170.0, 170.0);
    for (std::size_t i = 0; i < kPhotos / 30; ++i) {
      CorpusPhoto& photo = corpus.photos.emplace_back();
      photo.embedding = center;
      for (float& x : photo.embedding) {
        x += static_cast<float>(rng.Normal(0.0, 0.3));
      }
      photo.exif = SampleExif(rng, when, lat, lon);
      photo.bytes = 1000 + corpus.photos.size();
    }
  }
  std::fill(corpus.photos[5].embedding.begin(),
            corpus.photos[5].embedding.end(), 0.0f);
  corpus.photos[7].embedding = corpus.photos[6].embedding;
  const std::size_t sizes[] = {1, 2, 9, 192, 193, 300};
  const std::size_t strides[] = {1, 7, 11, 13, 17, 19};  // coprime to 300
  for (std::size_t s = 0; s < 6; ++s) {
    SubsetSpec& spec = corpus.subsets.emplace_back();
    spec.name = StrFormat("m%zu", sizes[s]);
    for (std::size_t i = 0; i < sizes[s]; ++i) {
      spec.members.push_back(static_cast<PhotoId>((i * strides[s]) % kPhotos));
    }
  }
  return corpus;
}

TEST(RepresentationOracleTest, SparseRowsEqualThresholdedDenseMatrix) {
  const Corpus corpus = OracleCorpus();
  kernels::ResetOpCounts();
  kernels::SetOpCountingEnabled(true);
  std::size_t nonempty = 0;
  for (const bool context_normalize : {true, false}) {
    for (const double exif_weight : {0.0, 0.3}) {
      for (const double tau : {0.3, 0.5, 0.9}) {
        RepresentationOptions options;
        options.context_normalize = context_normalize;
        options.exif_weight = exif_weight;
        options.sparsify_tau = tau;
        const ParInstance instance =
            BuildInstance(corpus, corpus.TotalBytes() / 3, options);
        instance.Validate();
        for (SubsetId q = 0; q < instance.num_subsets(); ++q) {
          const Subset want = testing::DenseThresholdedSubset(
              corpus, corpus.subsets[q], options);
          EXPECT_EQ(testing::SparseRowsDiff(instance.subset(q), want), "")
              << corpus.subsets[q].name << " ctx=" << context_normalize
              << " exif=" << exif_weight << " tau=" << tau;
          // The mirroring the removal and local-search paths trust, checked
          // here with a full pass (the build itself never checks it).
          EXPECT_EQ(testing::SparseMirrorDiff(instance.subset(q)), "")
              << corpus.subsets[q].name << " tau=" << tau;
          if (!want.sparse_indices.empty()) ++nonempty;
        }
      }
    }
  }
  kernels::SetOpCountingEnabled(false);
  // The grid is not vacuous, and no path hashes (the sweep is exact).
  EXPECT_GE(nonempty, 40u);
  EXPECT_EQ(kernels::SnapshotOpCounts().simhash_macs, 0u);
}

TEST(RepresentationOracleTest, PlanBytesEqualTheDenseThresholdedInstances) {
  // The whole plan, not just the rows: solving the built instance and the
  // oracle's instance gives the same serialized plan.
  for (const std::size_t photos : {120, 600}) {
    const Corpus corpus = SmallCorpus(3, photos);
    ArchiveOptions options;
    options.budget = corpus.TotalBytes() / 4;
    const RepresentationOptions& repr = options.representation;
    const ParInstance built = BuildInstance(corpus, options.budget, repr);
    std::vector<Cost> costs;
    for (PhotoId p = 0; p < built.num_photos(); ++p) {
      costs.push_back(built.cost(p));
    }
    ParInstance oracle(built.num_photos(), std::move(costs), options.budget);
    for (PhotoId p : built.RequiredPhotos()) oracle.MarkRequired(p);
    for (SubsetId q = 0; q < built.num_subsets(); ++q) {
      Subset subset =
          testing::DenseThresholdedSubset(corpus, corpus.subsets[q], repr);
      subset.name = built.subset(q).name;
      subset.weight = built.subset(q).weight;
      subset.relevance = built.subset(q).relevance;
      oracle.AddSubset(std::move(subset));
    }
    const auto plan_bytes = [&](const ParInstance& instance) {
      instance.BuildMembershipIndex();
      CelfSolver solver;
      return service::PlanToJson(
                 AssemblePlan(instance, solver.Solve(instance), options))
          .Dump();
    };
    EXPECT_EQ(plan_bytes(built), plan_bytes(oracle)) << photos << " photos";
  }
}

TEST(RepresentationTest, RequiredPhotosCarryOver) {
  Corpus corpus = SmallCorpus(5);
  corpus.required = {1, 7};
  const ParInstance instance = BuildInstance(corpus, corpus.TotalBytes());
  EXPECT_TRUE(instance.IsRequired(1));
  EXPECT_TRUE(instance.IsRequired(7));
  EXPECT_FALSE(instance.IsRequired(0));
}

// -------------------------------------------------------- instance io ----

TEST(InstanceIoTest, RoundTripsAllSimModes) {
  ParInstance original = testing::MakeFigure1Instance();
  {  // add a sparse and a uniform subset to cover every mode
    Subset sparse;
    sparse.members = {0, 3};
    sparse.relevance = {0.6, 0.4};
    sparse.sim_mode = Subset::SimMode::kSparse;
    sparse.SetSparseRows({{{1, 0.55f}}, {{0, 0.55f}}});
    original.AddSubset(std::move(sparse));
    Subset uniform;
    uniform.members = {2, 4, 6};
    uniform.relevance = {0.2, 0.3, 0.5};
    uniform.sim_mode = Subset::SimMode::kUniform;
    original.AddSubset(std::move(uniform));
    original.MarkRequired(4);
  }
  const ParInstance decoded = InstanceFromJson(InstanceToJson(original));
  decoded.Validate();
  EXPECT_EQ(decoded.num_photos(), original.num_photos());
  EXPECT_EQ(decoded.budget(), original.budget());
  EXPECT_EQ(decoded.num_subsets(), original.num_subsets());
  EXPECT_TRUE(decoded.IsRequired(4));
  // Objective values must be preserved for arbitrary selections.
  for (const std::vector<PhotoId>& sel :
       {std::vector<PhotoId>{0, 5}, {1, 2, 3}, {6}, {0, 1, 2, 3, 4, 5, 6}}) {
    EXPECT_NEAR(ObjectiveEvaluator::Evaluate(decoded, sel),
                ObjectiveEvaluator::Evaluate(original, sel), 1e-5);
  }
}

TEST(InstanceIoTest, FileRoundTrip) {
  const ParInstance original = testing::MakeFigure1Instance();
  const std::string path = ::testing::TempDir() + "/phocus_instance.json";
  SaveInstance(original, path);
  const ParInstance loaded = LoadInstance(path);
  EXPECT_EQ(loaded.num_photos(), original.num_photos());
  EXPECT_NEAR(ObjectiveEvaluator::Evaluate(loaded, {0, 5, 1}),
              ObjectiveEvaluator::Evaluate(original, {0, 5, 1}), 1e-6);
}

TEST(InstanceIoTest, RejectsForeignJson) {
  EXPECT_THROW(InstanceFromJson(Json::Parse("{\"format\":\"other\"}")),
               CheckFailure);
  EXPECT_THROW(InstanceFromJson(Json::Parse("[1,2]")), CheckFailure);
}

// ------------------------------------------------------------- system ----

TEST(SystemTest, EndToEndPlanIsConsistent) {
  PhocusSystem system(SmallCorpus(6));
  ArchiveOptions options;
  options.budget = system.corpus().TotalBytes() / 5;
  const ArchivePlan plan = system.PlanArchive(options);

  EXPECT_LE(plan.retained_bytes, options.budget);
  EXPECT_EQ(plan.retained.size() + plan.archived.size(),
            system.corpus().num_photos());
  EXPECT_EQ(plan.retained_bytes + plan.archived_bytes,
            system.corpus().TotalBytes());
  EXPECT_GT(plan.score, 0.0);
  EXPECT_GT(plan.max_score, plan.score);
  EXPECT_GT(plan.score_fraction, 0.0);
  EXPECT_LT(plan.score_fraction, 1.0);
  EXPECT_GT(plan.online_bound.certified_ratio, 0.3);  // >= worst case
  EXPECT_FALSE(plan.subset_coverage.empty());
  for (const SubsetCoverage& row : plan.subset_coverage) {
    EXPECT_GE(row.coverage, 0.0);
    EXPECT_LE(row.coverage, 1.0 + 1e-9);
    EXPECT_LE(row.retained_members, row.total_members);
  }
  // Coverage rows are sorted by importance.
  for (std::size_t i = 1; i < plan.subset_coverage.size(); ++i) {
    EXPECT_GE(plan.subset_coverage[i - 1].weight, plan.subset_coverage[i].weight);
  }
}

TEST(SystemTest, LargerBudgetNeverHurts) {
  PhocusSystem system(SmallCorpus(7));
  ArchiveOptions small, large;
  small.budget = system.corpus().TotalBytes() / 8;
  large.budget = system.corpus().TotalBytes() / 2;
  EXPECT_LE(system.PlanArchive(small).score,
            system.PlanArchive(large).score + 1e-9);
}

TEST(SystemTest, PlanWithBaselineSolver) {
  PhocusSystem system(SmallCorpus(8));
  ArchiveOptions options;
  options.budget = system.corpus().TotalBytes() / 5;
  RandomAddSolver random_solver(3);
  const ArchivePlan random_plan = system.PlanArchiveWith(options, random_solver);
  const ArchivePlan phocus_plan = system.PlanArchive(options);
  EXPECT_GE(phocus_plan.score + 1e-9, random_plan.score);
}

TEST(SystemTest, DescribePlanMentionsTheKeyNumbers) {
  PhocusSystem system(SmallCorpus(9));
  ArchiveOptions options;
  options.budget = system.corpus().TotalBytes() / 5;
  const ArchivePlan plan = system.PlanArchive(options);
  const std::string text = DescribePlan(plan, 3);
  EXPECT_NE(text.find("retain"), std::string::npos);
  EXPECT_NE(text.find("certified"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);
}

TEST(SystemTest, ZeroBudgetIsRejected) {
  PhocusSystem system(SmallCorpus(10));
  ArchiveOptions options;
  options.budget = 0;
  EXPECT_THROW(system.PlanArchive(options), CheckFailure);
}

}  // namespace
}  // namespace phocus
