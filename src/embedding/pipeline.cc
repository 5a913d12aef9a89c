#include "embedding/pipeline.h"

#include "embedding/projection.h"
#include "imaging/ops.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace phocus {

EmbeddingPipeline::EmbeddingPipeline(EmbeddingPipelineOptions options)
    : options_(options) {
  PHOCUS_CHECK(options_.working_size >= 16, "working size too small");
  if (options_.projection_dim > 0) {
    projection_ = std::make_shared<RandomProjection>(
        descriptor_dimension(), options_.projection_dim,
        options_.projection_seed);
  }
}

std::size_t EmbeddingPipeline::descriptor_dimension() const {
  const auto& c = options_.color;
  const std::size_t color_dim = static_cast<std::size_t>(c.grid) * c.grid *
                                c.hue_bins * c.sat_bins * c.val_bins;
  const int cells = options_.working_size / options_.hog.cell;
  const std::size_t hog_dim = static_cast<std::size_t>(cells) * cells *
                              options_.hog.orientation_bins;
  const std::size_t lbp_dim = 2 * 2 * 32;
  return color_dim + hog_dim + lbp_dim;
}

std::size_t EmbeddingPipeline::dimension() const {
  return options_.projection_dim > 0 ? options_.projection_dim
                                     : descriptor_dimension();
}

Embedding EmbeddingPipeline::Extract(const Image& image) const {
  PHOCUS_CHECK(!image.empty(), "cannot embed an empty image");
  const Stopwatch timer;
  Image working = image;
  if (image.width() != options_.working_size ||
      image.height() != options_.working_size) {
    working = ResizeBilinear(image, options_.working_size, options_.working_size);
  }
  Embedding embedding;
  embedding.reserve(descriptor_dimension());
  AppendWeighted(embedding, ColorHistogram(working, options_.color),
                 options_.color_weight);
  AppendWeighted(embedding, HogDescriptor(working, options_.hog),
                 options_.hog_weight);
  AppendWeighted(embedding, LbpDescriptor(working), options_.lbp_weight);
  PHOCUS_CHECK(embedding.size() == descriptor_dimension(),
               "descriptor dimension bookkeeping is out of sync");
  if (projection_ != nullptr) {
    embedding = projection_->Apply(embedding);
  }
  NormalizeInPlace(embedding);
  telemetry::MetricsRegistry::Current()
      .GetHistogram("embedding.extract_ns")
      .Record(static_cast<double>(timer.ElapsedNanos()));
  return embedding;
}

std::vector<Embedding> EmbeddingPipeline::ExtractBatch(
    const std::vector<Image>& images) const {
  telemetry::TraceSpan span("embedding.extract_batch");
  span.SetAttribute("images", static_cast<std::uint64_t>(images.size()));
  std::vector<Embedding> out(images.size());
  ThreadPool::Global().ParallelFor(
      images.size(), [&](std::size_t i) { out[i] = Extract(images[i]); });
  return out;
}

}  // namespace phocus
