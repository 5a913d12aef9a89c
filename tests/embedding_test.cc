#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "embedding/context.h"
#include "embedding/descriptors.h"
#include "embedding/pair_sweep.h"
#include "embedding/pipeline.h"
#include "embedding/projection.h"
#include "embedding/vector_ops.h"
#include "imaging/scene.h"
#include "kernels/kernels.h"
#include "util/logging.h"
#include "util/rng.h"

namespace phocus {
namespace {

// ------------------------------------------------------- vector ops ------

TEST(VectorOpsTest, DotAndNorm) {
  const Embedding a = {1.0f, 2.0f, 3.0f};
  const Embedding b = {4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm(a), std::sqrt(14.0));
  EXPECT_THROW(Dot(a, {1.0f}), CheckFailure);
}

TEST(VectorOpsTest, CosineSimilarityProperties) {
  const Embedding a = {1.0f, 0.0f};
  const Embedding b = {0.0f, 2.0f};
  const Embedding c = {3.0f, 0.0f};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, {-1.0f, 0.0f}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, {0.0f, 0.0f}), 0.0);  // zero vector
}

TEST(VectorOpsTest, NormalizeInPlace) {
  Embedding v = {3.0f, 4.0f};
  NormalizeInPlace(v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);
  Embedding zero = {0.0f, 0.0f};
  NormalizeInPlace(zero);  // must not divide by zero
  EXPECT_DOUBLE_EQ(Norm(zero), 0.0);
}

TEST(VectorOpsTest, EuclideanDistance) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0.0f, 0.0f}, {3.0f, 4.0f}), 5.0);
}

TEST(VectorOpsTest, AppendWeighted) {
  Embedding head = {1.0f};
  AppendWeighted(head, {2.0f, 3.0f}, 0.5f);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_FLOAT_EQ(head[1], 1.0f);
  EXPECT_FLOAT_EQ(head[2], 1.5f);
}

// ------------------------------------------------------- pair sweep ------

/// Runs under PHOCUS_NUM_THREADS 1 and 4 too (pair_sweep_t1/_t4): the
/// m = 130 sweep spans several tiles, which fan out on the global pool.
TEST(PairSweepTest, VisitsEveryCosineBitForBitInOrder) {
  using Visit = std::tuple<std::size_t, std::size_t, double>;
  Rng rng(31);
  for (std::size_t m : {2, 3, 5, 9, 130}) {
    for (std::size_t d : {1, 8, 13, 160}) {
      std::vector<Embedding> vectors(m, Embedding(d));
      for (Embedding& v : vectors) {
        for (float& x : v) x = static_cast<float>(rng.Normal());
      }
      // Zero rows, two of them adjacent, split the dot blocks: their pairs
      // take the zero-norm rule and cost no dot.
      if (m >= 5) {
        for (std::size_t z : {std::size_t{1}, m / 2, m / 2 + 1}) {
          vectors[z].assign(d, 0.0f);
        }
      }
      std::vector<float> buffer;
      const RowMatrix matrix = GatherRows(
          m, [&](std::size_t k) -> const Embedding& { return vectors[k]; },
          buffer);
      kernels::ResetOpCounts();
      kernels::SetOpCountingEnabled(true);
      const std::vector<std::vector<Visit>> tiles =
          SweepPairs<std::vector<Visit>>(
              matrix, [](std::vector<Visit>& out, std::size_t i,
                         std::size_t j, double cosine) {
                out.emplace_back(i, j, cosine);
              });
      kernels::SetOpCountingEnabled(false);
      const std::uint64_t dot_elems = kernels::SnapshotOpCounts().dot_elems;

      std::vector<Visit> visits;
      for (const std::vector<Visit>& tile : tiles) {
        visits.insert(visits.end(), tile.begin(), tile.end());
      }
      std::size_t k = 0, nonzero_pairs = 0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j, ++k) {
          ASSERT_LT(k, visits.size()) << "m=" << m << " d=" << d;
          const auto [vi, vj, cosine] = visits[k];
          ASSERT_EQ(i, vi) << "m=" << m << " d=" << d << " visit " << k;
          ASSERT_EQ(j, vj) << "m=" << m << " d=" << d << " visit " << k;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(
                        CosineSimilarity(vectors[i], vectors[j])),
                    std::bit_cast<std::uint64_t>(cosine))
              << "m=" << m << " d=" << d << " pair " << i << "," << j;
          if (Norm(vectors[i]) * Norm(vectors[j]) != 0.0) ++nonzero_pairs;
        }
      }
      EXPECT_EQ(visits.size(), k);
      // One norm per row, one dot per pair with a nonzero norm product.
      EXPECT_EQ((m + nonzero_pairs) * d, dot_elems)
          << "m=" << m << " d=" << d;
    }
  }
}

TEST(PairSweepTest, GatherRowsRejectsMixedDimensions) {
  const std::vector<Embedding> vectors = {{1.0f, 2.0f}, {3.0f}};
  std::vector<float> buffer;
  EXPECT_THROW(
      GatherRows(vectors.size(),
                 [&](std::size_t k) -> const Embedding& { return vectors[k]; },
                 buffer),
      CheckFailure);
}

// ------------------------------------------------------ descriptors ------

TEST(DescriptorTest, ColorHistogramDimensionAndNonnegativity) {
  Rng rng(1);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("hist"), rng), 64, 64);
  ColorHistogramOptions options;
  const Embedding h = ColorHistogram(image, options);
  EXPECT_EQ(h.size(), static_cast<std::size_t>(2 * 2 * 8 * 3 * 3));
  for (float v : h) EXPECT_GE(v, 0.0f);
}

TEST(DescriptorTest, ColorHistogramCellsAreL1Normalized) {
  Rng rng(2);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("norm"), rng), 64, 64);
  const Embedding h = ColorHistogram(image);
  const std::size_t bins_per_cell = 8 * 3 * 3;
  for (int cell = 0; cell < 4; ++cell) {
    double total = 0.0;
    for (std::size_t i = 0; i < bins_per_cell; ++i) {
      total += h[cell * bins_per_cell + i];
    }
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

TEST(DescriptorTest, ColorHistogramSeparatesHues) {
  Image red(32, 32, Rgb{220, 10, 10});
  Image blue(32, 32, Rgb{10, 10, 220});
  const double sim = CosineSimilarity(ColorHistogram(red), ColorHistogram(blue));
  EXPECT_LT(sim, 0.2);
  EXPECT_GT(CosineSimilarity(ColorHistogram(red), ColorHistogram(red)), 0.999);
}

TEST(DescriptorTest, HogDimensionMatchesGrid) {
  Image image(64, 64, Rgb{50, 50, 50});
  const Embedding hog = HogDescriptor(image);
  EXPECT_EQ(hog.size(), static_cast<std::size_t>(8 * 8 * 9));
}

TEST(DescriptorTest, HogDistinguishesEdgeOrientations) {
  // Vertical vs horizontal edges should produce different HOGs.
  Image vertical(64, 64), horizontal(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      vertical.At(x, y) = x % 8 < 4 ? Rgb{0, 0, 0} : Rgb{255, 255, 255};
      horizontal.At(x, y) = y % 8 < 4 ? Rgb{0, 0, 0} : Rgb{255, 255, 255};
    }
  }
  const double cross =
      CosineSimilarity(HogDescriptor(vertical), HogDescriptor(horizontal));
  const double self =
      CosineSimilarity(HogDescriptor(vertical), HogDescriptor(vertical));
  EXPECT_GT(self, 0.999);
  EXPECT_LT(cross, 0.6);
}

TEST(DescriptorTest, LbpDimensionAndNonnegativity) {
  Rng rng(3);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("lbp"), rng), 64, 64);
  const Embedding lbp = LbpDescriptor(image);
  EXPECT_EQ(lbp.size(), static_cast<std::size_t>(2 * 2 * 32));
  for (float v : lbp) EXPECT_GE(v, 0.0f);
}

// ---------------------------------------------------------- pipeline -----

TEST(PipelineTest, DimensionBookkeeping) {
  EmbeddingPipelineOptions options;
  options.working_size = 64;
  const EmbeddingPipeline pipeline(options);
  EXPECT_EQ(pipeline.descriptor_dimension(),
            static_cast<std::size_t>(288 + 576 + 128));
  Rng rng(4);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("dim"), rng), 64, 64);
  EXPECT_EQ(pipeline.Extract(image).size(), pipeline.dimension());
}

TEST(PipelineTest, EmbeddingsAreUnitNorm) {
  const EmbeddingPipeline pipeline;
  Rng rng(5);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("unit"), rng), 64, 64);
  EXPECT_NEAR(Norm(pipeline.Extract(image)), 1.0, 1e-5);
}

TEST(PipelineTest, ProjectionReducesDimension) {
  EmbeddingPipelineOptions options;
  options.projection_dim = 64;
  const EmbeddingPipeline pipeline(options);
  EXPECT_EQ(pipeline.dimension(), 64u);
  Rng rng(6);
  const Image image =
      RenderScene(SampleScene(StyleForCategory("proj"), rng), 64, 64);
  const Embedding e = pipeline.Extract(image);
  EXPECT_EQ(e.size(), 64u);
  EXPECT_NEAR(Norm(e), 1.0, 1e-5);
}

TEST(PipelineTest, NearDuplicatesAreMoreSimilarThanStrangers) {
  const EmbeddingPipeline pipeline;
  Rng rng(7);
  const SceneStyle style = StyleForCategory("duplicates");
  const SceneParams original = SampleScene(style, rng);
  const SceneParams duplicate = JitterScene(original, rng, 0.25);
  const SceneParams stranger = SampleScene(StyleForCategory("other things"), rng);

  const Embedding e0 = pipeline.Extract(RenderScene(original, 64, 64));
  const Embedding e1 = pipeline.Extract(RenderScene(duplicate, 64, 64));
  const Embedding e2 = pipeline.Extract(RenderScene(stranger, 64, 64));
  EXPECT_GT(CosineSimilarity(e0, e1), CosineSimilarity(e0, e2));
  EXPECT_GT(CosineSimilarity(e0, e1), 0.8);
}

TEST(PipelineTest, ExtractBatchMatchesExtract) {
  const EmbeddingPipeline pipeline;
  Rng rng(8);
  std::vector<Image> images;
  for (int i = 0; i < 5; ++i) {
    images.push_back(RenderScene(SampleScene(StyleForCategory("batch"), rng), 48, 48));
  }
  const std::vector<Embedding> batch = pipeline.ExtractBatch(images);
  ASSERT_EQ(batch.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(batch[i], pipeline.Extract(images[i]));
  }
}

// -------------------------------------------------------- projection -----

TEST(ProjectionTest, ApproximatelyPreservesCosine) {
  Rng rng(9);
  const std::size_t dim = 500;
  const RandomProjection projection(dim, 128, 42);
  double max_error = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    Embedding a(dim), b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      a[i] = static_cast<float>(rng.UniformDouble());
      b[i] = static_cast<float>(rng.UniformDouble());
    }
    const double before = CosineSimilarity(a, b);
    const double after = CosineSimilarity(projection.Apply(a), projection.Apply(b));
    max_error = std::max(max_error, std::abs(before - after));
  }
  EXPECT_LT(max_error, 0.15);  // JL-style distortion at k = 128
}

TEST(ProjectionTest, DeterministicInSeed) {
  const RandomProjection a(10, 4, 7), b(10, 4, 7), c(10, 4, 8);
  const Embedding v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(a.Apply(v), b.Apply(v));
  EXPECT_NE(a.Apply(v), c.Apply(v));
}

TEST(ProjectionTest, RejectsDimensionMismatch) {
  const RandomProjection projection(4, 2, 1);
  EXPECT_THROW(projection.Apply({1.0f, 2.0f}), CheckFailure);
}

// ----------------------------------------------------------- context -----

TEST(ContextTest, MatrixIsSymmetricWithUnitDiagonal) {
  Rng rng(10);
  std::vector<Embedding> embeddings;
  for (int i = 0; i < 6; ++i) {
    Embedding e(16);
    for (float& v : e) v = static_cast<float>(rng.UniformDouble());
    embeddings.push_back(std::move(e));
  }
  const std::vector<std::uint32_t> members = {0, 2, 3, 5};
  const std::vector<float> matrix =
      SubsetSimilarityMatrix(embeddings, nullptr, members);
  const std::size_t m = members.size();
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_FLOAT_EQ(matrix[i * m + i], 1.0f);
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_FLOAT_EQ(matrix[i * m + j], matrix[j * m + i]);
      EXPECT_GE(matrix[i * m + j], 0.0f);
      EXPECT_LE(matrix[i * m + j], 1.0f);
    }
  }
}

TEST(ContextTest, ContextNormalizationStretchesSimilarities) {
  // Three nearly-parallel vectors: raw similarities are all close to 1;
  // after context normalization the *least* similar pair drops to 0.
  std::vector<Embedding> embeddings = {
      {1.0f, 0.00f}, {1.0f, 0.05f}, {1.0f, 0.12f}};
  for (auto& e : embeddings) NormalizeInPlace(e);
  const std::vector<std::uint32_t> members = {0, 1, 2};

  ContextSimilarityOptions raw;
  raw.context_normalize = false;
  const std::vector<float> raw_matrix =
      SubsetSimilarityMatrix(embeddings, nullptr, members, raw);
  EXPECT_GT(raw_matrix[0 * 3 + 2], 0.99f);

  ContextSimilarityOptions contextual;
  contextual.context_normalize = true;
  const std::vector<float> ctx_matrix =
      SubsetSimilarityMatrix(embeddings, nullptr, members, contextual);
  // The most distant pair (0, 2) defines the context scale → similarity 0.
  EXPECT_NEAR(ctx_matrix[0 * 3 + 2], 0.0f, 1e-5f);
  // Closer pairs stay clearly above 0.
  EXPECT_GT(ctx_matrix[0 * 3 + 1], 0.3f);
}

TEST(ContextTest, MinSimilarityFloorsToZero) {
  std::vector<Embedding> embeddings = {{1.0f, 0.0f}, {0.6f, 0.8f}};
  const std::vector<std::uint32_t> members = {0, 1};
  ContextSimilarityOptions options;
  options.context_normalize = false;
  options.min_similarity = 0.9;
  const std::vector<float> matrix =
      SubsetSimilarityMatrix(embeddings, nullptr, members, options);
  EXPECT_FLOAT_EQ(matrix[1], 0.0f);  // cosine 0.6 < 0.9 floor
  EXPECT_FLOAT_EQ(matrix[0], 1.0f);  // diagonal untouched
}

TEST(ContextTest, ExifWeightRequiresMetadata) {
  std::vector<Embedding> embeddings = {{1.0f}, {1.0f}};
  ContextSimilarityOptions options;
  options.exif_weight = 0.5;
  EXPECT_THROW(SubsetSimilarityMatrix(embeddings, nullptr, {0, 1}, options),
               CheckFailure);
}

TEST(ContextTest, ExifDistancePullsApartSameLookingPhotos) {
  std::vector<Embedding> embeddings = {{1.0f, 0.0f}, {1.0f, 0.0f}, {1.0f, 0.0f}};
  Rng rng(11);
  std::vector<ExifMetadata> exif(3);
  exif[0] = SampleExif(rng, 1'600'000'000, 10.0, 20.0);
  exif[1] = exif[0];                                      // same shot
  exif[2] = SampleExif(rng, 1'700'000'000, -50.0, 140.0); // different trip
  ContextSimilarityOptions options;
  options.context_normalize = false;
  options.exif_weight = 0.5;
  const std::vector<float> matrix =
      SubsetSimilarityMatrix(embeddings, &exif, {0, 1, 2}, options);
  EXPECT_GT(matrix[0 * 3 + 1], matrix[0 * 3 + 2]);
}

TEST(ContextTest, RawSimilaritySelfIsOne) {
  std::vector<Embedding> embeddings = {{1.0f, 0.0f}, {0.0f, 1.0f}};
  ContextSimilarityOptions options;
  EXPECT_DOUBLE_EQ(RawSimilarity(embeddings, nullptr, 0, 0, options), 1.0);
  EXPECT_NEAR(RawSimilarity(embeddings, nullptr, 0, 1, options), 0.0, 1e-12);
}

}  // namespace
}  // namespace phocus
