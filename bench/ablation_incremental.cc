/// \file ablation_incremental.cc
/// Archive maintenance over time (§1's growth premise): photos arrive in
/// batches; compare incremental re-planning (phocus/incremental.h) against
/// a from-scratch PHOcus solve after every batch. Expected shape: the
/// incremental plan stays within a few percent of the fresh plan while the
/// solver-side work (gain evaluations) shrinks severalfold — wall time at
/// these sizes is dominated by the shared representation build, so the
/// evaluation counts are the meaningful column.

#include <algorithm>
#include <cstdio>

#include "bench/bench_support.h"
#include "datagen/corpus_ops.h"
#include "datagen/openimages.h"
#include "phocus/incremental.h"
#include "phocus/representation.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  phocus::bench::ParseBenchFlags(&argc, argv);
  using namespace phocus;
  bench::PrintHeader("ablation_incremental",
                     "incremental re-planning vs from-scratch solves");
  const std::size_t scale = bench::GetScale();

  OpenImagesOptions options;
  options.num_photos = 3000 / scale;
  options.seed = 2024;
  const Corpus full = GenerateOpenImagesCorpus(options);
  const Cost budget = full.TotalBytes() / 10;
  const std::size_t initial = full.num_photos() / 2;
  const std::size_t batches = 5;
  const std::size_t batch_size = (full.num_photos() - initial) / batches;
  std::printf("archive grows %zu -> %zu photos in %zu batches; budget %s\n\n",
              initial, full.num_photos(), batches, HumanBytes(budget).c_str());

  // Initial slice.
  std::vector<PhotoId> prefix(initial);
  for (PhotoId p = 0; p < initial; ++p) prefix[p] = p;
  IncrementalOptions inc_options;
  inc_options.archive.budget = budget;
  IncrementalArchiver archiver(inc_options);
  archiver.Initialize(RestrictCorpus(full, prefix, 2));

  TextTable table;
  table.SetHeader({"batch", "photos", "incremental G", "fresh G", "ratio",
                   "incr gain evals", "fresh gain evals"});
  std::size_t delivered = initial;
  for (std::size_t batch = 1; batch <= batches; ++batch) {
    const std::size_t next = std::min(full.num_photos(),
                                      delivered + batch_size);
    std::vector<CorpusPhoto> new_photos(full.photos.begin() + delivered,
                                        full.photos.begin() + next);
    std::vector<SubsetSpec> new_subsets;
    for (const SubsetSpec& spec : full.subsets) {
      const bool touches = std::any_of(
          spec.members.begin(), spec.members.end(), [&](PhotoId p) {
            return p >= delivered && p < next;
          });
      const bool already = std::any_of(
          spec.members.begin(), spec.members.end(),
          [&](PhotoId p) { return p >= next; });
      if (touches && !already) new_subsets.push_back(spec);
    }
    delivered = next;

    IncrementalUpdateStats stats;
    const ArchivePlan& incremental =
        archiver.AddPhotos(new_photos, new_subsets, {}, &stats);

    const ArchivePlan fresh =
        PlanCorpus(archiver.corpus(), inc_options.archive);
    table.AddRow({StrFormat("%zu", batch), StrFormat("%zu", delivered),
                  StrFormat("%.2f", incremental.score),
                  StrFormat("%.2f", fresh.score),
                  StrFormat("%.1f%%", 100.0 * incremental.score /
                                std::max(1e-9, fresh.score)),
                  StrFormat("%zu", stats.gain_evaluations),
                  StrFormat("%zu", fresh.solver_result.gain_evaluations)});
  }
  std::printf("%s", table.Render(
                        "Incremental vs from-scratch re-planning").c_str());
  phocus::bench::ExportTelemetryIfRequested();
  return 0;
}
