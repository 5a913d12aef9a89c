#include "phocus/ingest.h"

#include <algorithm>
#include <unordered_set>

#include "imaging/quality.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace phocus {

CorpusPhoto IngestPhoto(const Image& image, const std::string& title,
                        const ExifMetadata& exif,
                        const IngestOptions& options) {
  PHOCUS_CHECK(!image.empty(), "cannot ingest an empty image");
  const EmbeddingPipeline pipeline(options.pipeline);
  CorpusPhoto photo;
  photo.embedding = pipeline.Extract(image);
  photo.quality = AssessQuality(image).overall;
  photo.bytes = EstimateJpegBytes(image, options.size);
  photo.exif = exif;
  photo.title = title;
  return photo;
}

std::vector<CorpusPhoto> IngestPhotos(const std::vector<Image>& images,
                                      const std::vector<std::string>& titles,
                                      const std::vector<ExifMetadata>& exif,
                                      const std::vector<Cost>& provided_bytes,
                                      const IngestOptions& options) {
  PHOCUS_CHECK(titles.size() == images.size(),
               "one title per image required");
  PHOCUS_CHECK(exif.size() == images.size(), "one EXIF record per image");
  if (options.use_provided_bytes) {
    PHOCUS_CHECK(provided_bytes.size() == images.size(),
                 "use_provided_bytes requires one byte count per image");
  }
  telemetry::TraceSpan span("phocus.ingest");
  span.SetAttribute("photos", static_cast<std::uint64_t>(images.size()));
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("ingest.photos").Add(images.size());
  telemetry::Histogram& photo_hist = registry.GetHistogram("ingest.photo_ns");
  const EmbeddingPipeline pipeline(options.pipeline);
  std::vector<CorpusPhoto> photos(images.size());
  ThreadPool::Global().ParallelFor(images.size(), [&](std::size_t i) {
    const Stopwatch photo_timer;
    CorpusPhoto& photo = photos[i];
    photo.embedding = pipeline.Extract(images[i]);
    photo.quality = AssessQuality(images[i]).overall;
    photo.bytes = options.use_provided_bytes
                      ? provided_bytes[i]
                      : EstimateJpegBytes(images[i], options.size);
    PHOCUS_CHECK(photo.bytes > 0, "photo byte size must be positive");
    photo.exif = exif[i];
    photo.title = titles[i];
    photo_hist.Record(static_cast<double>(photo_timer.ElapsedNanos()));
  });
  PHOCUS_LOG(kDebug) << "ingest: extracted embeddings for " << photos.size()
                     << " photos";
  return photos;
}

SubsetSpec MakeAlbum(const std::string& name, double weight,
                     std::vector<PhotoId> members,
                     std::vector<double> relevance) {
  PHOCUS_CHECK(weight > 0.0, "album weight must be positive");
  PHOCUS_CHECK(relevance.empty() || relevance.size() == members.size(),
               "relevance must be empty or aligned with members");
  SubsetSpec spec;
  spec.name = name;
  spec.weight = weight;
  spec.members = std::move(members);
  spec.relevance = std::move(relevance);
  return spec;
}

Corpus AssembleCorpus(const std::string& name,
                      std::vector<CorpusPhoto> photos,
                      std::vector<SubsetSpec> albums,
                      std::vector<PhotoId> required) {
  Corpus corpus;
  corpus.name = name;
  corpus.photos = std::move(photos);
  for (const SubsetSpec& album : albums) {
    std::unordered_set<PhotoId> members_seen;
    members_seen.reserve(album.members.size());
    for (PhotoId p : album.members) {
      PHOCUS_CHECK(p < corpus.photos.size(),
                   "album member photo id out of range");
      PHOCUS_CHECK(members_seen.insert(p).second,
                   "duplicate member photo id in album '" + album.name + "'");
    }
  }
  corpus.subsets = std::move(albums);
  for (PhotoId p : required) {
    PHOCUS_CHECK(p < corpus.photos.size(), "required photo id out of range");
  }
  corpus.required = std::move(required);
  std::sort(corpus.required.begin(), corpus.required.end());
  // A duplicated required id would be counted twice in C(S0) accounting
  // downstream; reject it rather than silently keeping both copies.
  PHOCUS_CHECK(std::adjacent_find(corpus.required.begin(),
                                  corpus.required.end()) ==
                   corpus.required.end(),
               "duplicate required photo id");
  return corpus;
}

}  // namespace phocus
