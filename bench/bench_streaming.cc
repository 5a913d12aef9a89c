/// \file bench_streaming.cc
/// Streaming ingest on the Table-2 P-100K fixture: 60% of the corpus is
/// planned up front, the remaining 40% arrives as a bursty upload stream,
/// and two replan policies absorb it —
///
///   per_batch — replan after every ingest call (the naive baseline),
///   drift     — replan only when the CELF a-posteriori drift bound says a
///               fresh solve could beat the stale plan by more than ε,
///               plus the final flush (phocus/streaming.h).
///
/// A third row, shrink_2pct, times the set_budget verb on the whole corpus:
/// a 2% budget cut evicts retained photos by removal loss per byte, then
/// tops up and rebalances (phocus/incremental.h).
///
/// Expected shape: the drift policy runs severalfold fewer replans (the
/// machine-independent column) at a final score within a few percent of the
/// per-batch baseline, because the skipped replans are exactly the ones the
/// bound certifies could not have mattered by more than ε. Wall numbers are
/// honest single-machine times; the replan/drift-eval counts depend only on
/// the stream and the policy. Exported rows land in BENCH_streaming.json
/// (scripts/lint_bench_json.py checks the meta stamp).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_support.h"
#include "datagen/corpus_ops.h"
#include "datagen/table2.h"
#include "phocus/streaming.h"
#include "telemetry/metrics.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  phocus::bench::ParseBenchFlags(&argc, argv);
  using namespace phocus;
  bench::PrintHeader("bench_streaming",
                     "streaming ingest: drift-triggered vs per-batch replans");
  const std::size_t scale = bench::GetScale();

  const Corpus full = CachedTable2Corpus("P-100K", scale);
  const Cost budget = full.TotalBytes() / 10;
  const std::size_t initial = full.num_photos() * 3 / 5;
  std::printf("P-100K at scale %zu: %zu photos, %zu subsets; %zu up front, "
              "%zu streamed; budget %s\n\n",
              scale, full.num_photos(), full.subsets.size(), initial,
              full.num_photos() - initial, HumanBytes(budget).c_str());

  // The bursty arrival schedule: burst sizes cycle through a spiky pattern
  // (big dump, trickle, trickle, ...) scaled so the stream lands in ~12
  // batches. Deterministic — both policies replay the identical stream.
  const std::size_t streamed = full.num_photos() - initial;
  const std::size_t unit = std::max<std::size_t>(1, streamed / 24);
  const std::size_t pattern[] = {6 * unit, unit, unit, 10 * unit, 2 * unit,
                                 4 * unit};

  std::vector<PhotoId> prefix(initial);
  for (PhotoId p = 0; p < initial; ++p) prefix[p] = p;
  const Corpus head = RestrictCorpus(full, prefix, 2);

  struct ModeResult {
    const char* label;
    double seconds = 0.0;
    double score = 0.0;
    std::size_t replans = 0;
    std::size_t drift_evals = 0;
    std::size_t evicted = 0;
    std::size_t gain_evals = 0;
    std::size_t photos = 0;
    std::size_t subsets = 0;
  };

  auto run_mode = [&](const char* label, bool per_batch,
                      double epsilon) -> ModeResult {
    StreamingOptions options;
    options.incremental.archive.budget = budget;
    options.replan_every_batch = per_batch;
    options.epsilon = epsilon;
    options.batch_photos = std::max<std::size_t>(1, 2 * unit);
    options.queue_photos = streamed + 1;  // never shed in the bench
    StreamingArchiver archiver(options);
    archiver.Initialize(head);

    auto& gain_counter = telemetry::MetricsRegistry::Current().GetCounter(
        "solver.celf.gain_evals");
    const std::uint64_t gain_before = gain_counter.value();

    Stopwatch timer;
    std::size_t delivered = initial;
    std::size_t burst = 0;
    while (delivered < full.num_photos()) {
      const std::size_t next =
          std::min(full.num_photos(),
                   delivered + pattern[burst++ % (sizeof(pattern) /
                                                  sizeof(pattern[0]))]);
      IngestBatch batch;
      batch.photos.assign(full.photos.begin() + delivered,
                          full.photos.begin() + next);
      for (const SubsetSpec& spec : full.subsets) {
        // A subset ships with the batch that completes it; members already
        // delivered are backfill references into the older corpus.
        const bool touches = std::any_of(
            spec.members.begin(), spec.members.end(),
            [&](PhotoId p) { return p >= delivered && p < next; });
        const bool complete = std::all_of(
            spec.members.begin(), spec.members.end(),
            [&](PhotoId p) { return p < next; });
        if (touches && complete) batch.subsets.push_back(spec);
      }
      delivered = next;
      archiver.Ingest(std::move(batch));
    }
    archiver.Flush();

    ModeResult result;
    result.label = label;
    result.seconds = timer.ElapsedSeconds();
    result.score = archiver.plan().score;
    result.replans = archiver.replans();
    result.drift_evals = archiver.drift_evals();
    result.gain_evals =
        static_cast<std::size_t>(gain_counter.value() - gain_before);
    result.photos = archiver.corpus().num_photos();
    result.subsets = archiver.corpus().subsets.size();
    return result;
  };

  const ModeResult per_batch = run_mode("per_batch", true, 0.0);
  const ModeResult drift = run_mode("drift_eps0.25", false, 0.25);

  const ModeResult shrink = [&] {
    StreamingOptions options;
    options.incremental.archive.budget = budget;
    StreamingArchiver archiver(options);
    archiver.Initialize(full);
    Stopwatch timer;
    const IngestOutcome outcome = archiver.SetBudget(budget - budget / 50);
    ModeResult result;
    result.label = "shrink_2pct";
    result.seconds = timer.ElapsedSeconds();
    result.score = archiver.plan().score;
    result.replans = archiver.replans();
    result.evicted = outcome.stats.evicted_for_feasibility;
    result.gain_evals = outcome.stats.gain_evaluations;
    result.photos = full.num_photos();
    result.subsets = full.subsets.size();
    return result;
  }();

  TextTable table;
  table.SetHeader({"policy", "replans", "drift evals", "gain evals",
                   "final G", "stream seconds"});
  for (const ModeResult* mode : {&per_batch, &drift}) {
    table.AddRow({mode->label, StrFormat("%zu", mode->replans),
                  StrFormat("%zu", mode->drift_evals),
                  StrFormat("%zu", mode->gain_evals),
                  StrFormat("%.2f", mode->score),
                  StrFormat("%.3f", mode->seconds)});
  }
  std::printf("%s", table.Render("streaming replan policies").c_str());
  std::printf("\ndrift policy: %zu of %zu replans avoided, score %.1f%% of "
              "per-batch\n",
              per_batch.replans - drift.replans, per_batch.replans,
              100.0 * drift.score / std::max(1e-9, per_batch.score));
  std::printf("set_budget -2%%: %zu evicted, %zu gain evals, final G %.2f, "
              "%.3f s\n",
              shrink.evicted, shrink.gain_evals, shrink.score, shrink.seconds);

  for (const ModeResult* mode : {&per_batch, &drift, &shrink}) {
    bench::BenchRecord record;
    record.solver = std::string("stream_") + mode->label;
    record.photos = mode->photos;
    record.subsets = mode->subsets;
    record.wall_seconds = mode->seconds;
    record.gain_evals = mode->gain_evals;
    record.score = mode->score;
    record.replans = mode->replans;
    record.drift_evals = mode->drift_evals;
    record.evicted = mode->evicted;
    record.streaming = true;
    bench::RecordBenchResult(record);
  }
  bench::SetBenchFixture(
      StrFormat("table2_P-100K_scale%zu_stream40pct", scale));
  bench::ExportBenchJsonIfRequested("bench_streaming");
  bench::ExportTelemetryIfRequested();
  return 0;
}
