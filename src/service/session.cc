#include "service/session.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "datagen/corpus_io.h"
#include "datagen/openimages.h"
#include "phocus/explain.h"
#include "phocus/ingest_wal.h"
#include "phocus/representation.h"
#include "service/protocol.h"
#include "storage/archiver.h"
#include "storage/vault.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace phocus {
namespace service {

Session::Session(std::string id, Corpus corpus, std::string wal_dir)
    : id_(std::move(id)),
      wal_dir_(std::move(wal_dir)),
      corpus_(std::move(corpus)) {}

const Corpus& Session::CorpusLocked() const {
  return streamer_ != nullptr ? streamer_->corpus() : corpus_;
}

Json Session::Describe() {
  std::lock_guard<std::mutex> lock(mutex_);
  const Corpus& corpus = CorpusLocked();
  Json out = Json::Object();
  out.Set("session", id_);
  out.Set("corpus", corpus.name);
  out.Set("num_photos", corpus.num_photos());
  out.Set("total_bytes", corpus.TotalBytes());
  out.Set("num_subsets", corpus.subsets.size());
  out.Set("num_required", corpus.required.size());
  return out;
}

std::uint64_t Session::FingerprintLocked() {
  if (!fingerprint_.has_value()) {
    fingerprint_ = Fnv64(EncodeCorpus(CorpusLocked()));
  }
  return *fingerprint_;
}

std::string Session::Fingerprint() {
  std::lock_guard<std::mutex> lock(mutex_);
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(FingerprintLocked()));
}

Session::PlanOutcome Session::Plan(const ArchiveOptions& options,
                                   PlanCache* cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(options.budget > 0, "plan needs a positive budget");
  const std::string key =
      StrFormat("%016llx|",
                static_cast<unsigned long long>(FingerprintLocked())) +
      CanonicalOptionsKey(options);
  PlanOutcome outcome;
  {
    // Under phocusd's per-request trace sink these become children of the
    // service.request span (docs/OBSERVABILITY.md).
    telemetry::TraceSpan span("service.session.cache_lookup");
    if (cache != nullptr) {
      outcome.plan = cache->Lookup(key);
    }
    span.SetAttribute("hit", outcome.plan != nullptr ? "true" : "false");
  }
  if (outcome.plan != nullptr) {
    outcome.from_cache = true;
  } else {
    telemetry::TraceSpan span("service.session.solve");
    outcome.plan = std::make_shared<const ArchivePlan>(
        PlanCorpus(CorpusLocked(), options));
    if (cache != nullptr) cache->Insert(key, outcome.plan);
  }
  last_plan_ = outcome.plan;
  last_options_ = options;
  return outcome;
}

namespace {

/// The streamer's post-absorb id space: the next batch's first photo lands
/// after everything absorbed plus everything queued.
PhotoId NextPhotoId(const StreamingArchiver& streamer) {
  return static_cast<PhotoId>(streamer.corpus().num_photos() +
                              streamer.pending_photos());
}

/// Deterministic arrivals: a fresh mini-corpus whose subsets are remapped
/// into the appended id space (they only reference the new photos).
IngestBatch GenerateArrivals(std::size_t count, std::uint64_t seed,
                             PhotoId offset) {
  telemetry::TraceSpan span("service.session.generate");
  span.SetAttribute("photos", static_cast<std::uint64_t>(count));
  OpenImagesOptions generate;
  generate.num_photos = count;
  generate.seed = seed;
  Corpus arrivals = GenerateOpenImagesCorpus(generate);
  IngestBatch batch;
  batch.photos = std::move(arrivals.photos);
  batch.subsets = std::move(arrivals.subsets);
  for (SubsetSpec& spec : batch.subsets) {
    spec.name = StrFormat("%s@%u", spec.name.c_str(), offset);
    for (PhotoId& member : spec.members) member += offset;
  }
  return batch;
}

}  // namespace

bool Session::HasRecoverableWalLocked() const {
  return !wal_dir_.empty() && IngestWal::Exists(wal_dir_, id_);
}

StreamingArchiver& Session::StreamerLocked(const ArchiveOptions& options) {
  if (streamer_ != nullptr) return *streamer_;
  // The WAL's base fingerprint is the session fingerprint of the base corpus
  // (WalChecksum and Fnv64 are the same FNV-1a), so a planned session does
  // not encode its corpus again.
  const std::uint64_t base_fingerprint =
      wal_dir_.empty() ? 0 : FingerprintLocked();
  if (HasRecoverableWalLocked()) {
    // A WAL for this session survived a restart: rebuild the streamer from
    // it instead of solving from scratch. The fingerprint over this
    // session's base corpus must match the one the WAL was started with —
    // a recreated session with a different corpus must not adopt another
    // history's queue. When they disagree (sessions recreated in a
    // different order, or over a different base corpus), the WAL is
    // quarantined — renamed aside, never deleted — and the session starts
    // fresh: wedging every request on the mismatch would leave
    // close_session (which deletes the WAL) as the only escape, discarding
    // the very queue the WAL protects.
    try {
      streamer_ = StreamingArchiver::RecoverFromWal(
          std::make_unique<IngestWal>(wal_dir_, id_), base_fingerprint);
    } catch (const WalMismatchError& mismatch) {
      PHOCUS_LOG(kWarn) << "session " << id_
                        << ": surviving ingest wal refused ("
                        << mismatch.what() << "); quarantining it";
      IngestWal(wal_dir_, id_).Quarantine();
    }
    if (streamer_ != nullptr) {
      fingerprint_.reset();  // the recovered corpus has grown past the base
      last_plan_ = streamer_->shared_plan();
      last_options_ = streamer_->archiver().options().archive;
    }
  }
  if (streamer_ == nullptr) {
    // No incremental state yet: seed it with the request's options, or fall
    // back to the options of the last full plan.
    ArchiveOptions initial = options;
    if (initial.budget == 0 && last_plan_ != nullptr) initial = last_options_;
    PHOCUS_CHECK(initial.budget > 0,
                 "first update needs a budget (pass one or plan first)");
    StreamingOptions streaming;
    streaming.incremental.archive = initial;
    // Built aside and installed only once ready: a failed initial solve or
    // WAL start leaves the session on its base corpus, retryable.
    auto streamer = std::make_unique<StreamingArchiver>(streaming);
    streamer->Initialize(corpus_);
    if (!wal_dir_.empty()) {
      streamer->AttachWal(std::make_unique<IngestWal>(wal_dir_, id_),
                          base_fingerprint);
    }
    streamer_ = std::move(streamer);
    last_options_ = initial;
  }
  corpus_ = Corpus();  // the streamer owns the corpus from here on
  return *streamer_;
}

Session::IngestResult Session::StreamLocked(
    const std::function<IngestOutcome(StreamingArchiver&)>& call) {
  IngestResult result;
  try {
    result.outcome = call(*streamer_);
  } catch (...) {
    fingerprint_.reset();
    throw;
  }
  if (result.outcome.absorbed) fingerprint_.reset();
  if (result.outcome.replanned) {
    result.plan = streamer_->shared_plan();
    last_plan_ = result.plan;
  }
  result.num_photos = streamer_->corpus().num_photos();
  result.replans = streamer_->replans();
  result.replans_skipped = streamer_->replans_skipped();
  result.drift_evals = streamer_->drift_evals();
  return result;
}

Session::IngestResult Session::AddGeneratedPhotos(
    std::size_t count, std::uint64_t seed, const ArchiveOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(count > 0, "update needs count > 0");
  StreamerLocked(options);
  return StreamLocked([&](StreamingArchiver& streamer) {
    return streamer.Update(
        GenerateArrivals(count, seed, NextPhotoId(streamer)));
  });
}

Session::IngestResult Session::SetBudget(Cost budget,
                                         const ArchiveOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(budget > 0, "budget must be positive");
  ArchiveOptions with_budget = options;
  with_budget.budget = budget;
  // A fresh streamer's initial solve already ran at `budget`; an existing
  // one — or one recovered from a WAL, which carries its own pre-crash
  // budget — commits the new budget.
  const bool fresh = streamer_ == nullptr && !HasRecoverableWalLocked();
  StreamerLocked(with_budget);
  IngestResult result = StreamLocked([&](StreamingArchiver& streamer) {
    if (!fresh) return streamer.SetBudget(budget);
    IngestOutcome initial_solve;
    initial_solve.replanned = true;
    initial_solve.reason = "set_budget";
    return initial_solve;
  });
  last_options_.budget = budget;
  return result;
}

Session::IngestResult Session::Ingest(std::size_t count, std::uint64_t seed,
                                      const ArchiveOptions& options,
                                      const IngestConfig& config,
                                      std::function<double()> now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(count > 0, "ingest needs count > 0");
  StreamingArchiver& streamer = StreamerLocked(options);
  StreamingOptions policy;
  policy.epsilon = config.epsilon;
  policy.max_staleness_ms = config.max_staleness_ms;
  policy.batch_photos = config.batch_photos;
  policy.queue_photos = config.queue_photos;
  policy.replan_every_batch = config.replan_every_batch;
  policy.budget_fraction = config.budget_fraction;
  policy.now_ms = std::move(now_ms);
  // A queue_photos shrink drains the queue right here, growing the corpus
  // (and perhaps replanning): like any streamer call it must invalidate the
  // cached fingerprint, or the next `plan` serves a stale hit.
  StreamLocked([&](StreamingArchiver& target) {
    return target.set_policy(policy);
  });
  // Shed before generating: a rejected batch is never rendered or embedded.
  streamer.CheckQueueCapacity(count);

  const PhotoId offset = NextPhotoId(streamer);
  IngestBatch batch = GenerateArrivals(count, seed, offset);
  if (config.backfill_members > 0 && offset > 0) {
    // Out-of-order metadata: an old album's page arrives only now, naming
    // photos ingested long ago. Deterministic from the seed.
    SubsetSpec backfill;
    backfill.name = StrFormat("backfill@%u", offset);
    const std::size_t members =
        std::min<std::size_t>(config.backfill_members, offset);
    std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    for (std::size_t i = 0; i < members; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      backfill.members.push_back(static_cast<PhotoId>((state >> 33) % offset));
    }
    std::sort(backfill.members.begin(), backfill.members.end());
    backfill.members.erase(
        std::unique(backfill.members.begin(), backfill.members.end()),
        backfill.members.end());
    batch.subsets.push_back(std::move(backfill));
  }

  return StreamLocked([&](StreamingArchiver& target) {
    return target.Ingest(std::move(batch));
  });
}

Session::IngestResult Session::IngestFlush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streamer_ == nullptr && HasRecoverableWalLocked()) {
    // Restart path: a bare ingest_flush after recreating the session replays
    // the surviving WAL, so the flush drains the pre-crash queue.
    StreamerLocked(ArchiveOptions{});
  }
  PHOCUS_CHECK(streamer_ != nullptr,
               "ingest_flush before any ingest/update on session " + id_);
  return StreamLocked(
      [](StreamingArchiver& streamer) { return streamer.Flush(); });
}

Json Session::Coverage(std::size_t top_k) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(last_plan_ != nullptr, "no plan yet for session " + id_);
  Json rows = Json::Array();
  const std::vector<SubsetCoverage>& coverage = last_plan_->subset_coverage;
  const std::size_t limit =
      top_k == 0 ? coverage.size() : std::min(top_k, coverage.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const SubsetCoverage& row = coverage[i];
    Json entry = Json::Object();
    entry.Set("subset", row.name);
    entry.Set("weight", row.weight);
    entry.Set("coverage", row.coverage);
    entry.Set("retained_members", row.retained_members);
    entry.Set("total_members", row.total_members);
    rows.Append(std::move(entry));
  }
  Json out = Json::Object();
  out.Set("session", id_);
  out.Set("rows", std::move(rows));
  return out;
}

Json Session::Explain(PhotoId photo) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(last_plan_ != nullptr, "no plan yet for session " + id_);
  const Corpus& corpus = CorpusLocked();
  PHOCUS_CHECK(photo < corpus.num_photos(), "photo id out of range");
  const ParInstance instance = BuildInstance(corpus, last_options_.budget,
                                             last_options_.representation);
  const bool retained = std::binary_search(last_plan_->retained.begin(),
                                           last_plan_->retained.end(), photo);
  Json out = Json::Object();
  out.Set("session", id_);
  out.Set("photo", photo);
  out.Set("retained", retained);
  if (retained) {
    out.Set("text", DescribeRetained(
                        ExplainRetained(instance, last_plan_->retained, photo)));
  } else {
    out.Set("text", DescribeArchived(
                        ExplainArchived(instance, last_plan_->retained, photo)));
  }
  return out;
}

Json Session::ArchiveToVault(const std::string& directory, int render_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  PHOCUS_CHECK(last_plan_ != nullptr, "no plan yet for session " + id_);
  std::filesystem::create_directories(directory);
  ArchiveVault vault(directory);
  const ArchiveToVaultReport report =
      ArchivePlanToVault(CorpusLocked(), *last_plan_, vault, render_size);
  Json out = Json::Object();
  out.Set("session", id_);
  out.Set("directory", directory);
  out.Set("photos_archived", report.photos_archived);
  out.Set("deduplicated", report.deduplicated);
  out.Set("original_bytes", report.original_bytes);
  out.Set("stored_bytes", report.stored_bytes);
  out.Set("compression_ratio", report.compression_ratio);
  out.Set("vault_objects", vault.num_objects());
  return out;
}

void Session::CloseWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Detach before deleting: an in-flight request can still hold the session
  // shared_ptr after the manager dropped it, and an append-mode ofstream
  // would silently recreate <id>.log (headerless) after the remove. Holding
  // the session mutex here means no such request is mid-append, and after
  // the detach the streamer is memory-only, so none can touch disk again.
  if (streamer_ != nullptr) streamer_->DetachWal();
  if (!wal_dir_.empty()) {
    IngestWal(wal_dir_, id_).Remove();
  }
}

std::shared_ptr<Session> SessionManager::Create(Corpus corpus) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string id = StrFormat("s-%llu",
                                   static_cast<unsigned long long>(next_id_++));
  auto session = std::make_shared<Session>(id, std::move(corpus), wal_dir_);
  sessions_[id] = session;
  return session;
}

std::shared_ptr<Session> SessionManager::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::Remove(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Outside the map lock: quiescing takes the session's own mutex, and
  // other sessions' requests must not serialize behind this teardown. A
  // closed session has nothing left to recover.
  session->CloseWal();
  return true;
}

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace service
}  // namespace phocus
