#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "kernels/kernels.h"
#include "phocus/ingest_wal.h"
#include "phocus/streaming.h"
#include "service/protocol.h"

/// \file streaming_determinism_main.cc
/// Emits the deterministic JSON serialization of a full streaming-ingest
/// session on stdout: a bursty upload stream driven through StreamingArchiver
/// in drift-triggered mode, with an `update` commit and a `set_budget` shrink
/// along the way, ending with a flush. cmake/plan_determinism.cmake
/// runs this binary under every PHOCUS_KERNELS table the machine advertises
/// crossed with several PHOCUS_NUM_THREADS values and fails unless all
/// outputs are byte-identical — the streaming tier's determinism contract:
/// replan decisions (drift bound vs ε) and the final plan depend only on the
/// ingest sequence, never on thread count or kernel ISA.
///
/// A second phase replays the same burst schedule through a WAL-attached
/// archiver, abandons it mid-stream without flushing (the in-process stand-in
/// for kill -9), recovers from the WAL, and requires the recovered session's
/// final plan to be byte-identical to the crash-free run — folding WAL replay
/// into the same kernels × threads determinism matrix.

namespace {

phocus::IngestBatch MakeBatch(std::size_t count, std::uint64_t seed,
                              phocus::PhotoId offset) {
  phocus::OpenImagesOptions options;
  options.num_photos = count;
  options.seed = seed;
  options.render_size = 32;
  phocus::Corpus arrivals = phocus::GenerateOpenImagesCorpus(options);
  phocus::IngestBatch batch;
  batch.photos = std::move(arrivals.photos);
  for (phocus::SubsetSpec& spec : arrivals.subsets) {
    spec.name += '@';
    spec.name += std::to_string(offset);
    for (phocus::PhotoId& member : spec.members) member += offset;
    batch.subsets.push_back(std::move(spec));
  }
  return batch;
}

/// The session script: bursty ingests with one `update` commit and one
/// `set_budget` shrink in between, so the sweep covers every journaled verb.
enum class Verb { kIngest, kUpdate, kShrink, kFlush };
struct Step {
  Verb verb;
  std::size_t photos;
};
constexpr Step kScript[] = {
    {Verb::kIngest, 14}, {Verb::kIngest, 3},  {Verb::kIngest, 3},
    {Verb::kUpdate, 8},  {Verb::kShrink, 0},  {Verb::kIngest, 22},
    {Verb::kIngest, 4},  {Verb::kIngest, 16}, {Verb::kFlush, 0},
};
constexpr std::size_t kSteps = sizeof(kScript) / sizeof(kScript[0]);
/// The WAL phase abandons its archiver after this many steps: both verbs
/// are journaled and the queue is non-empty.
constexpr std::size_t kCrashAfter = 7;

/// Runs script step `i`, offsetting batch ids past everything the archiver
/// already knows about (absorbed or queued).
void RunStep(phocus::StreamingArchiver& archiver, std::size_t i) {
  const Step& step = kScript[i];
  const phocus::PhotoId offset = static_cast<phocus::PhotoId>(
      archiver.corpus().num_photos() + archiver.pending_photos());
  switch (step.verb) {
    case Verb::kIngest:
      archiver.Ingest(MakeBatch(step.photos, 900 + i, offset));
      break;
    case Verb::kUpdate:
      archiver.Update(MakeBatch(step.photos, 900 + i, offset));
      break;
    case Verb::kShrink:
      archiver.SetBudget(archiver.budget() * 9 / 10);
      break;
    case Verb::kFlush:
      archiver.Flush();
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--list-kernels") == 0) {
    std::puts("scalar");
    if (phocus::kernels::Avx2Table() != nullptr) std::puts("avx2");
    return 0;
  }

  phocus::OpenImagesOptions corpus_options;
  corpus_options.num_photos = 120;
  corpus_options.seed = 17;
  corpus_options.render_size = 32;
  const phocus::Corpus base =
      phocus::GenerateOpenImagesCorpus(corpus_options);

  phocus::StreamingOptions options;
  options.incremental.archive.budget = base.TotalBytes() / 4;
  options.epsilon = 0.25;
  options.batch_photos = 10;
  phocus::StreamingArchiver archiver(options);
  archiver.Initialize(base);

  for (std::size_t step = 0; step < kSteps; ++step) RunStep(archiver, step);

  // The replan/skip counts are part of the determinism contract: a drift
  // decision that flips across thread counts would change them even when
  // the final plan happens to coincide.
  std::printf("replans=%zu skipped=%zu drift_evals=%zu photos=%zu\n",
              archiver.replans(), archiver.replans_skipped(),
              archiver.drift_evals(), archiver.corpus().num_photos());
  const std::string crash_free =
      phocus::service::PlanToJson(archiver.plan()).Dump(1);
  std::fputs(crash_free.c_str(), stdout);
  std::fputc('\n', stdout);

  // --- WAL crash/recovery phase -------------------------------------------
  // Same script, but the archiver is abandoned after kCrashAfter steps with
  // its queue non-empty and the WAL left on disk, then rebuilt via
  // RecoverFromWal. The recovered run must land on the same plan bytes.
  namespace fs = std::filesystem;
  char dir_template[] = "/tmp/phocus-det-wal-XXXXXX";
  const char* wal_dir = ::mkdtemp(dir_template);
  if (wal_dir == nullptr) {
    std::fputs("error: mkdtemp failed for the WAL phase\n", stderr);
    return 1;
  }
  const std::uint64_t fingerprint =
      phocus::WalChecksum(phocus::EncodeCorpus(base));
  {
    phocus::StreamingArchiver crashing(options);
    crashing.Initialize(base);
    crashing.AttachWal(
        std::make_unique<phocus::IngestWal>(wal_dir, "det"), fingerprint);
    for (std::size_t step = 0; step < kCrashAfter; ++step) {
      RunStep(crashing, step);
    }
    // Scope exit without Flush: the queue tail lives only in the WAL now.
  }
  std::unique_ptr<phocus::StreamingArchiver> recovered =
      phocus::StreamingArchiver::RecoverFromWal(
          std::make_unique<phocus::IngestWal>(wal_dir, "det"), fingerprint);
  for (std::size_t step = kCrashAfter; step < kSteps; ++step) {
    RunStep(*recovered, step);
  }
  const std::string recovered_json =
      phocus::service::PlanToJson(recovered->plan()).Dump(1);
  recovered.reset();
  fs::remove_all(wal_dir);
  if (recovered_json != crash_free) {
    std::fputs("wal_recovery=mismatch\n", stdout);
    std::fputs(recovered_json.c_str(), stderr);
    return 1;
  }
  std::puts("wal_recovery=match");
  return 0;
}
