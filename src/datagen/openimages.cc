#include "datagen/openimages.h"

#include <algorithm>
#include <unordered_map>

#include "datagen/vocabulary.h"
#include "embedding/pipeline.h"
#include "imaging/jpeg_size.h"
#include "imaging/quality.h"
#include "util/logging.h"
#include "util/samplers.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace phocus {

namespace {

/// A deterministic pseudo-random "related label" map creating co-occurrence
/// structure: each label has a pool of companions it tends to appear with
/// (a bicycle photo often also shows a street, a helmet...).
std::size_t RelatedLabel(std::size_t label, std::size_t slot,
                         std::size_t vocabulary_size) {
  std::uint64_t h = (static_cast<std::uint64_t>(label) << 8) ^ (slot * 0x9e37ULL);
  h = SplitMix64(h);
  return static_cast<std::size_t>(h % vocabulary_size);
}

struct DraftPhoto {
  SceneParams scene;
  std::vector<std::pair<std::size_t, float>> labels;  // (label id, confidence)
  double resolution_scale = 3.0;
  ExifMetadata exif;
};

}  // namespace

Corpus GenerateOpenImagesCorpus(const OpenImagesOptions& options) {
  PHOCUS_CHECK(options.num_photos > 0, "num_photos must be positive");
  PHOCUS_CHECK(options.max_labels_per_photo >= 1, "need at least one label");
  // Checked up front: label names are computed on demand, so an oversized
  // vocabulary would otherwise fail only if an out-of-range label is drawn.
  PHOCUS_CHECK(options.vocabulary_size > 0, "vocabulary_size must be positive");
  PHOCUS_CHECK(options.vocabulary_size <= kLabelVocabularyCapacity,
               "requested vocabulary larger than the generator can produce");
  Rng rng(options.seed);
  const ZipfSampler label_popularity(options.vocabulary_size,
                                     options.label_zipf_exponent);

  // Phase 1: draft photos (scene parameters + labels), sequential because of
  // the near-duplicate chaining.
  std::vector<DraftPhoto> drafts;
  drafts.reserve(options.num_photos);
  std::unordered_map<std::size_t, SceneStyle> style_cache;
  auto style_of = [&](std::size_t label) -> const SceneStyle& {
    auto it = style_cache.find(label);
    if (it == style_cache.end()) {
      it = style_cache.emplace(label, StyleForCategory(LabelName(label))).first;
    }
    return it->second;
  };

  while (drafts.size() < options.num_photos) {
    if (!drafts.empty() && rng.Bernoulli(options.near_duplicate_prob)) {
      // Near-duplicate of the previous photo: same labels, jittered look and
      // slightly perturbed confidences.
      DraftPhoto duplicate = drafts.back();
      duplicate.scene = JitterScene(duplicate.scene, rng, 0.3);
      for (auto& [label, confidence] : duplicate.labels) {
        (void)label;
        confidence = std::clamp(
            confidence + static_cast<float>(rng.Normal(0.0, 0.05)), 0.05f, 1.0f);
      }
      duplicate.exif.timestamp_unix += rng.UniformInt(1, 120);  // burst shot
      drafts.push_back(std::move(duplicate));
      continue;
    }
    DraftPhoto draft;
    const std::size_t primary = label_popularity.Sample(rng);
    draft.scene = SampleScene(style_of(primary), rng);
    draft.labels.emplace_back(
        primary, static_cast<float>(rng.Uniform(0.7, 1.0)));
    const int secondaries =
        static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(options.max_labels_per_photo)));
    for (int s = 0; s < secondaries; ++s) {
      // Mostly co-occurring companions, occasionally an unrelated label.
      // Mostly co-occurring companions; otherwise a fresh long-tail label
      // (uniform over the full vocabulary), which is what makes the number
      // of observed labels keep growing with the sample size as in Table 2.
      const std::size_t label =
          rng.Bernoulli(0.7)
              ? RelatedLabel(primary, rng.NextBelow(6), options.vocabulary_size)
              : static_cast<std::size_t>(rng.NextBelow(options.vocabulary_size));
      bool duplicate_label = false;
      for (const auto& [existing, c] : draft.labels) {
        (void)c;
        if (existing == label) duplicate_label = true;
      }
      if (duplicate_label) continue;
      draft.labels.emplace_back(label,
                                static_cast<float>(rng.Uniform(0.3, 0.9)));
    }
    // Photos of the same primary label cluster in time/space (events).
    Rng event_rng = Rng(options.seed ^ 0xabcdefULL).Fork(primary);
    const std::int64_t event_center =
        1'500'000'000 + static_cast<std::int64_t>(event_rng.NextBelow(200'000'000));
    draft.exif = SampleExif(rng, event_center, event_rng.Uniform(-60.0, 60.0),
                            event_rng.Uniform(-180.0, 180.0));
    // Stored resolution tier: thumbnail / web / original.
    const double tier = rng.UniformDouble();
    draft.resolution_scale = tier < 0.2 ? 3.0 : (tier < 0.75 ? 6.5 : 11.0);
    drafts.push_back(std::move(draft));
  }

  // Phase 2: render + embed + size (parallel; drafts are now immutable).
  EmbeddingPipelineOptions pipeline_options;
  pipeline_options.working_size = options.render_size;
  pipeline_options.projection_dim = 160;  // keeps large archives compact
  const EmbeddingPipeline pipeline(pipeline_options);

  Corpus corpus;
  corpus.seed = options.seed;
  corpus.name = StrFormat("P-%zu", options.num_photos);
  corpus.photos.resize(drafts.size());
  ThreadPool::Global().ParallelFor(drafts.size(), [&](std::size_t i) {
    const DraftPhoto& draft = drafts[i];
    CorpusPhoto& photo = corpus.photos[i];
    const Image image =
        RenderScene(draft.scene, options.render_size, options.render_size);
    photo.embedding = pipeline.Extract(image);
    photo.quality = AssessQuality(image).overall;
    JpegSizeOptions size_options;
    size_options.resolution_scale = draft.resolution_scale;
    photo.bytes = EstimateJpegBytes(image, size_options);
    photo.exif = draft.exif;
    photo.scene = draft.scene;
    photo.title = LabelName(draft.labels.front().first);
  });

  // Phase 3: labels → subsets.
  std::unordered_map<std::size_t, std::size_t> subset_of_label;
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    for (const auto& [label, confidence] : drafts[i].labels) {
      auto [it, inserted] = subset_of_label.emplace(label, corpus.subsets.size());
      if (inserted) {
        SubsetSpec spec;
        spec.name = LabelName(label);
        // Importance: the label's frequency in the full (modeled) source.
        spec.weight = 1000.0 * label_popularity.Probability(label);
        corpus.subsets.push_back(std::move(spec));
      }
      SubsetSpec& spec = corpus.subsets[it->second];
      spec.members.push_back(static_cast<PhotoId>(i));
      spec.relevance.push_back(confidence);
    }
  }

  // Phase 4: policy-required photos.
  if (options.required_fraction > 0.0) {
    const std::size_t count = static_cast<std::size_t>(
        options.required_fraction * static_cast<double>(corpus.num_photos()));
    corpus.required = [&] {
      std::vector<PhotoId> out;
      for (std::size_t idx : rng.SampleWithoutReplacement(corpus.num_photos(),
                                                          count)) {
        out.push_back(static_cast<PhotoId>(idx));
      }
      return out;
    }();
  }
  return corpus;
}

}  // namespace phocus
