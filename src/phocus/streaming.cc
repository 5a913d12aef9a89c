#include "phocus/streaming.h"

#include <chrono>
#include <utility>

#include "phocus/ingest_wal.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace phocus {

namespace {

void CheckPolicy(const StreamingOptions& options) {
  PHOCUS_CHECK(options.epsilon >= 0.0, "epsilon must be non-negative");
  PHOCUS_CHECK(options.max_staleness_ms >= 0.0,
               "max_staleness_ms must be non-negative");
  PHOCUS_CHECK(options.batch_photos > 0, "batch_photos must be positive");
  PHOCUS_CHECK(options.queue_photos >= options.batch_photos,
               "queue_photos must be at least batch_photos");
  PHOCUS_CHECK(
      options.budget_fraction >= 0.0 && options.budget_fraction <= 1.0,
      "budget_fraction must be in [0, 1]");
}

WalPolicy PolicyOf(const StreamingOptions& options) {
  WalPolicy policy;
  policy.epsilon = options.epsilon;
  policy.max_staleness_ms = options.max_staleness_ms;
  policy.batch_photos = options.batch_photos;
  policy.queue_photos = options.queue_photos;
  policy.replan_every_batch = options.replan_every_batch;
  policy.budget_fraction = options.budget_fraction;
  return policy;
}

void ApplyWalPolicy(const WalPolicy& policy, StreamingOptions* options) {
  options->epsilon = policy.epsilon;
  options->max_staleness_ms = policy.max_staleness_ms;
  options->batch_photos = policy.batch_photos;
  options->queue_photos = policy.queue_photos;
  options->replan_every_batch = policy.replan_every_batch;
  options->budget_fraction = policy.budget_fraction;
}

}  // namespace

StreamingArchiver::~StreamingArchiver() = default;

StreamingArchiver::StreamingArchiver(StreamingOptions options)
    : options_(std::move(options)), archiver_(options_.incremental) {
  CheckPolicy(options_);
}

double StreamingArchiver::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const ArchivePlan& StreamingArchiver::Initialize(Corpus corpus) {
  PHOCUS_CHECK(!initialized_, "Initialize called twice");
  const ArchivePlan& plan = archiver_.Initialize(std::move(corpus));
  last_replan_ms_ = NowMs();
  initialized_ = true;
  return plan;
}

IngestOutcome StreamingArchiver::set_policy(const StreamingOptions& options) {
  CheckPolicy(options);
  // The incremental options (budget, representation) belong to the already-
  // constructed archiver; only the streaming policy is live-updatable.
  const WalPolicy policy = PolicyOf(options);
  // Journal first, then apply: a failed append leaves the old policy in
  // memory, as in the log. Journal only real changes: phocusd re-applies
  // the policy on every ingest request, and an unconditional record would
  // grow the log per request. (Skipped while poisoned; the next rotation's
  // checkpoint carries it.)
  if (policy != PolicyOf(options_) && wal_ != nullptr && !wal_->poisoned()) {
    wal_->AppendPolicy(policy);
  }
  ApplyWalPolicy(policy, &options_);
  if (options.now_ms) options_.now_ms = options.now_ms;

  // A cap shrunk below the pending count would otherwise shed every
  // subsequent batch — even a single photo — until a manual flush: the
  // overflow check rejects whole batches but nothing ever drains the queue
  // below the new cap. Auto-drain (and run the normal replan decision) so
  // the policy change leaves the streamer admissible.
  IngestOutcome outcome;
  if (pending_photos_ > options_.queue_photos) {
    telemetry::MetricsRegistry::Current()
        .GetCounter("ingest.policy_drains")
        .Increment();
    telemetry::FlightRecorder::Record("ingest.policy_drain", "queue_shrunk",
                                      pending_photos_, options_.queue_photos);
    DrainQueue(&outcome);
    MaybeReplan(/*force=*/false, &outcome);
  }
  outcome.pending_photos = pending_photos_;
  return outcome;
}

void StreamingArchiver::CheckQueueCapacity(std::size_t arriving) const {
  if (pending_photos_ + arriving <= options_.queue_photos) return;
  // Reject the batch whole: admitting a prefix would shift the post-absorb
  // id space the client already encoded the batch against.
  telemetry::MetricsRegistry::Current()
      .GetCounter("ingest.shed_batches")
      .Increment();
  telemetry::FlightRecorder::Record("ingest.shed", "queue_full", arriving,
                                    pending_photos_);
  throw IngestOverloadedError(
      pending_photos_, options_.queue_photos,
      "ingest overloaded: " + std::to_string(pending_photos_) +
          " photos pending, batch of " + std::to_string(arriving) +
          " exceeds the queue capacity of " +
          std::to_string(options_.queue_photos) + "; flush or retry later");
}

IngestOutcome StreamingArchiver::Ingest(IngestBatch batch) {
  PHOCUS_CHECK(initialized_, "Ingest before Initialize");
  PHOCUS_FAILPOINT("ingest.enqueue");
  const std::size_t arriving = batch.photos.size();
  CheckQueueCapacity(arriving);

  Enqueue(std::move(batch));

  IngestOutcome outcome;
  outcome.enqueued_photos = arriving;
  outcome.reason = "queued";
  // Staleness is checked on every ingest, not only at batch boundaries: a
  // quiet corpus receiving sub-batch trickles would otherwise never reach
  // MaybeReplan and the wall-clock fallback could never fire, contradicting
  // the header's "quiet-but-drifting corpus still converges".
  const bool stale = options_.max_staleness_ms > 0.0 &&
                     NowMs() - last_replan_ms_ >= options_.max_staleness_ms;
  if (options_.replan_every_batch ||
      pending_photos_ >= options_.batch_photos || stale) {
    DrainQueue(&outcome);
    MaybeReplan(/*force=*/false, &outcome);
  }
  outcome.pending_photos = pending_photos_;
  return outcome;
}

IngestOutcome StreamingArchiver::Update(IngestBatch batch) {
  PHOCUS_CHECK(initialized_, "Update before Initialize");
  const std::size_t photos = batch.photos.size();
  const std::size_t subsets = batch.subsets.size();
  Enqueue(std::move(batch));
  IngestOutcome outcome;
  DrainQueue(&outcome);
  CommitReplan("update", archiver_.budget(), &outcome);
  outcome.enqueued_photos = outcome.stats.photos_added = photos;
  outcome.stats.subsets_added = subsets;
  return outcome;
}

IngestOutcome StreamingArchiver::SetBudget(Cost budget) {
  PHOCUS_CHECK(initialized_, "SetBudget before Initialize");
  PHOCUS_CHECK(budget > 0, "budget must be positive");
  IngestOutcome outcome;
  DrainQueue(&outcome);
  CommitReplan("set_budget", budget, &outcome);
  return outcome;
}

IngestOutcome StreamingArchiver::Flush() {
  PHOCUS_CHECK(initialized_, "Flush before Initialize");
  telemetry::MetricsRegistry::Current().GetCounter("ingest.flushes").Increment();
  IngestOutcome outcome;
  if (queue_.empty() && archiver_.deferred_photos() == 0) {
    // Nothing to replan, but a poisoned WAL rejects every ingest and update
    // until a rotation heals it, so the flush barrier provides one.
    if (wal_ != nullptr && wal_->poisoned()) wal_->Rotate(MakeCheckpoint());
    outcome.reason = "clean";
    return outcome;
  }
  DrainQueue(&outcome);
  MaybeReplan(/*force=*/true, &outcome);
  outcome.pending_photos = pending_photos_;
  return outcome;
}

void StreamingArchiver::Enqueue(IngestBatch batch) {
  // Ids must fall inside the corpus as it stands once this batch is
  // absorbed, so the absorb that DrainQueue journals first cannot fail.
  const std::size_t limit = archiver_.corpus().num_photos() + pending_photos_ +
                            batch.photos.size();
  for (const SubsetSpec& spec : batch.subsets) {
    for (PhotoId p : spec.members) {
      PHOCUS_CHECK(p < limit, "subset member beyond the appended corpus");
    }
  }
  for (PhotoId p : batch.required) {
    PHOCUS_CHECK(p < limit, "required id beyond the appended corpus");
  }
  // Durability barrier: the batch reaches the fsync'd WAL before any state
  // changes. A fault here (full disk, injected crash) leaves the streamer
  // untouched and the batch un-acknowledged — the client retries.
  if (wal_ != nullptr) wal_->AppendBatch(batch);

  auto& registry = telemetry::MetricsRegistry::Current();
  const std::size_t arriving = batch.photos.size();
  pending_photos_ += arriving;
  queue_.push_back(std::move(batch));
  registry.GetCounter("ingest.batches").Increment();
  registry.GetCounter("ingest.enqueued_photos").Add(arriving);
  registry.GetGauge("ingest.queue_photos")
      .Set(static_cast<double>(pending_photos_));
  telemetry::FlightRecorder::Record("ingest.enqueue", "", arriving,
                                    pending_photos_);
}

std::size_t StreamingArchiver::AbsorbQueued(std::size_t batches) {
  PHOCUS_CHECK(batches <= queue_.size(),
               "absorb exceeds the queued batches");
  std::size_t photos = 0;
  for (std::size_t i = 0; i < batches; ++i) {
    IngestBatch batch = std::move(queue_.front());
    queue_.pop_front();
    const std::size_t absorbed = batch.photos.size();
    archiver_.AddPhotosDeferred(std::move(batch.photos),
                                std::move(batch.subsets),
                                std::move(batch.required));
    pending_photos_ -= absorbed;
    photos += absorbed;
  }
  return photos;
}

void StreamingArchiver::DrainQueue(IngestOutcome* outcome) {
  auto& registry = telemetry::MetricsRegistry::Current();
  const std::size_t drained_batches = queue_.size();
  // One absorb marker for the whole drain, journaled before the absorb: a
  // failed append leaves the batches queued, as the log has them, and a
  // crash after it replays the same absorb. A poisoned WAL skips the marker
  // (it would throw): replay then re-absorbs the batches as queued, same
  // result, and the next rotation's checkpoint carries the absorb.
  if (wal_ != nullptr && !wal_->poisoned() && drained_batches > 0) {
    wal_->AppendAbsorb(drained_batches);
  }
  registry.GetCounter("ingest.absorbed_photos")
      .Add(AbsorbQueued(drained_batches));
  if (drained_batches > 0) outcome->absorbed = true;
  registry.GetGauge("ingest.queue_photos")
      .Set(static_cast<double>(pending_photos_));
}

void StreamingArchiver::MaybeReplan(bool force, IngestOutcome* outcome) {
  auto& registry = telemetry::MetricsRegistry::Current();
  if (options_.budget_fraction > 0.0) {
    const Cost target = static_cast<Cost>(options_.budget_fraction *
                                          static_cast<double>(
                                              archiver_.corpus().TotalBytes()));
    if (target > 0 && target != archiver_.budget()) {
      archiver_.SetBudgetDeferred(target);
    }
  }

  const char* reason = nullptr;
  if (force) {
    reason = "flush";
  } else if (options_.replan_every_batch) {
    reason = "per_batch";
  } else {
    outcome->drift = archiver_.EstimateDrift();
    outcome->drift_evaluated = true;
    ++drift_evals_;
    if (outcome->drift.relative_drift > options_.epsilon) {
      reason = "drift_exceeded";
    } else if (options_.max_staleness_ms > 0.0 &&
               NowMs() - last_replan_ms_ >= options_.max_staleness_ms) {
      reason = "staleness";
    } else {
      outcome->reason = "below_epsilon";
      ++replans_skipped_;
      registry.GetCounter("ingest.replans_skipped").Increment();
      return;
    }
  }

  CommitReplan(reason, archiver_.budget(), outcome);
}

void StreamingArchiver::CommitReplan(const char* reason, Cost budget,
                                     IngestOutcome* outcome) {
  auto& registry = telemetry::MetricsRegistry::Current();
  // A fault here (injected crash, infeasible budget) leaves the archiver on
  // its previous plan and budget (SetBudget's rollback) with the drained
  // arrivals safely absorbed-as-archived, and nothing journaled; a later
  // Flush retries the replan — nothing is lost.
  PHOCUS_FAILPOINT("ingest.replan");
  const std::size_t folded_in = archiver_.deferred_photos();
  archiver_.SetBudget(budget, &outcome->stats);
  if (wal_ != nullptr) {
    // Commit marker first: once it is durable, every crash window between
    // here and the end of Rotate replays to this exact post-replan state
    // (the marker makes replay perform the replan; the rotation makes it
    // the checkpoint). A poisoned WAL cannot take the marker — go straight
    // to the rotation, whose atomic checkpoint captures the post-replan
    // state anyway and heals the poison with a fresh log.
    if (!wal_->poisoned()) wal_->AppendReplanCommit(budget);
    wal_->Rotate(MakeCheckpoint());
  }
  ++replans_;
  last_replan_ms_ = NowMs();
  outcome->replanned = true;
  outcome->reason = reason;
  registry.GetCounter("ingest.replans").Increment();
  telemetry::FlightRecorder::Record("ingest.replan", reason, folded_in,
                                    static_cast<std::uint64_t>(replans_));
}

WalCheckpoint StreamingArchiver::MakeCheckpoint() const {
  WalCheckpoint checkpoint;
  checkpoint.epoch = wal_->epoch();
  checkpoint.base_fingerprint = base_fingerprint_;
  checkpoint.incremental = archiver_.options();
  checkpoint.policy = PolicyOf(options_);
  checkpoint.corpus = archiver_.corpus();
  checkpoint.retained = archiver_.plan().retained;
  checkpoint.deferred_photos = archiver_.deferred_photos();
  checkpoint.queued.assign(queue_.begin(), queue_.end());
  return checkpoint;
}

void StreamingArchiver::AttachWal(std::unique_ptr<IngestWal> wal,
                                  std::uint64_t base_fingerprint) {
  PHOCUS_CHECK(initialized_, "AttachWal before Initialize");
  PHOCUS_CHECK(wal_ == nullptr, "AttachWal called twice");
  wal_ = std::move(wal);
  base_fingerprint_ = base_fingerprint;
  wal_->Start(MakeCheckpoint());
}

void StreamingArchiver::DetachWal() { wal_.reset(); }

std::unique_ptr<StreamingArchiver> StreamingArchiver::RecoverFromWal(
    std::unique_ptr<IngestWal> wal, std::uint64_t expected_base_fingerprint,
    std::function<double()> now_ms) {
  IngestWal::LoadResult load = wal->Load();
  if (load.checkpoint.base_fingerprint != expected_base_fingerprint) {
    throw WalMismatchError(
        "ingest wal at " + wal->checkpoint_path() +
        " belongs to a different session history (fingerprint mismatch)");
  }

  StreamingOptions options;
  options.incremental = load.checkpoint.incremental;
  ApplyWalPolicy(load.checkpoint.policy, &options);
  options.now_ms = std::move(now_ms);
  auto streamer = std::make_unique<StreamingArchiver>(std::move(options));
  streamer->archiver_.InitializeFromRetained(
      std::move(load.checkpoint.corpus), std::move(load.checkpoint.retained),
      static_cast<std::size_t>(load.checkpoint.deferred_photos));
  streamer->initialized_ = true;
  streamer->last_replan_ms_ = streamer->NowMs();
  for (IngestBatch& batch : load.checkpoint.queued) {
    streamer->pending_photos_ += batch.photos.size();
    streamer->queue_.push_back(std::move(batch));
  }

  // Replay the log tail as decisions: batches re-queue, absorbs re-absorb
  // the same batches in the same order, commits re-run the replan under the
  // recorded budget. Nothing is re-decided, so the result is byte-identical
  // to the pre-crash state.
  std::size_t replayed_batches = 0;
  for (WalRecord& record : load.records) {
    switch (record.type) {
      case WalRecord::Type::kBatch:
        ++replayed_batches;
        streamer->pending_photos_ += record.batch.photos.size();
        streamer->queue_.push_back(std::move(record.batch));
        break;
      case WalRecord::Type::kAbsorb:
        streamer->AbsorbQueued(record.absorb_batches);
        break;
      case WalRecord::Type::kPolicy:
        ApplyWalPolicy(record.policy, &streamer->options_);
        break;
      case WalRecord::Type::kReplanCommit:
        streamer->archiver_.SetBudget(record.budget);
        ++streamer->replans_;
        streamer->last_replan_ms_ = streamer->NowMs();
        break;
    }
  }

  streamer->base_fingerprint_ = load.checkpoint.base_fingerprint;
  streamer->wal_ = std::move(wal);
  // Compact immediately: the fresh checkpoint carries the replayed state —
  // still-queued batches included — so whichever crash window this process
  // woke up in is normalized before it serves traffic.
  streamer->wal_->Rotate(streamer->MakeCheckpoint());

  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("ingest.wal_recoveries").Increment();
  registry.GetCounter("ingest.wal_replayed_batches").Add(replayed_batches);
  telemetry::FlightRecorder::Record(
      "ingest.wal_recover", load.torn_tail ? "torn_tail" : "clean",
      replayed_batches, streamer->pending_photos_);
  return streamer;
}

}  // namespace phocus
