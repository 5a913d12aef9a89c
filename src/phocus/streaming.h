#ifndef PHOCUS_PHOCUS_STREAMING_H_
#define PHOCUS_PHOCUS_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "phocus/incremental.h"

/// \file streaming.h
/// Streaming ingest with bounded-staleness replanning. IncrementalArchiver
/// (PR 5) makes AddPhotos cheap, but replanning on every batch is still the
/// dominant cost at upload-firehose rates. StreamingArchiver decouples the
/// two:
///
///   - arrivals land in a bounded FIFO queue (backpressure past the cap),
///   - the queue drains into the corpus in batches via AddPhotosDeferred
///     (arrivals are archived-by-default until a replan retains them),
///   - a replan runs only when it can provably matter: the CELF a-posteriori
///     drift bound (core/online_bound.h) says a fresh solve could beat the
///     stale plan by more than ε — with a wall-clock staleness fallback on an
///     injectable clock so a quiet-but-drifting corpus still converges,
///   - the budget optionally rebalances as total corpus cost grows
///     (budget_fraction of TotalBytes()), applied deferred so it rides the
///     same replan trigger.
///
/// It is the only mutator of a session's archive (archiver() is const):
/// phocusd's `update`/`set_budget` verbs are Update/SetBudget, journaled in
/// the same WAL records as ingest, and every replan goes through one commit
/// step (replan, commit marker, checkpoint rotation, counters).
///
/// Everything observable is deterministic given the call sequence and clock:
/// no internal threads, no real sleeps — phocusd drives one instance per
/// session under its session mutex, and the scenario tier replays the same
/// sequences across thread counts and kernel tables.

namespace phocus {

class IngestWal;
struct WalCheckpoint;

/// Thrown when an ingest would overflow the bounded queue. Derives from
/// CheckFailure (like InfeasibleBudgetError) so generic recovery paths keep
/// working; phocusd maps it to the typed `ingest_overloaded` protocol error.
/// The batch is rejected whole — the caller retries after a flush or drain.
class IngestOverloadedError : public CheckFailure {
 public:
  IngestOverloadedError(std::size_t pending_photos, std::size_t queue_photos,
                        const std::string& what)
      : CheckFailure(what),
        pending_photos_(pending_photos),
        queue_photos_(queue_photos) {}

  /// Photos already queued when the batch was rejected.
  std::size_t pending_photos() const { return pending_photos_; }
  /// The queue capacity that would have been exceeded.
  std::size_t queue_photos() const { return queue_photos_; }

 private:
  std::size_t pending_photos_;
  std::size_t queue_photos_;
};

struct StreamingOptions {
  IncrementalOptions incremental;
  /// Replan when the certified relative drift bound exceeds this. 0 replans
  /// whenever any drift is possible.
  double epsilon = 0.05;
  /// Wall-clock fallback: force a replan when the plan is older than this,
  /// even below ε. 0 disables the fallback.
  double max_staleness_ms = 0.0;
  /// Queue photos drain into the corpus once this many are pending.
  std::size_t batch_photos = 32;
  /// Bounded-queue capacity in photos; an Ingest that would exceed it throws
  /// IngestOverloadedError.
  std::size_t queue_photos = 1024;
  /// Baseline mode: replan on every absorbed batch, skipping the drift
  /// estimate entirely (what BENCH_streaming.json compares against).
  bool replan_every_batch = false;
  /// When > 0, rebalance the budget to this fraction of the corpus's total
  /// bytes before each replan decision (budget grows with the collection,
  /// §1's premise).
  double budget_fraction = 0.0;
  /// Injectable clock for the staleness fallback, milliseconds on any
  /// monotonic scale. Defaults to std::chrono::steady_clock.
  std::function<double()> now_ms;
};

/// One queued upload batch. Photo/subset/required ids use the post-absorb id
/// space: the first photo of the first *queued* batch has id
/// corpus.num_photos() + pending_photos() at enqueue time — FIFO absorption
/// makes those ids final. Subsets may reference any older photo (backfill of
/// old albums, out-of-order metadata).
struct IngestBatch {
  std::vector<CorpusPhoto> photos;
  std::vector<SubsetSpec> subsets;
  std::vector<PhotoId> required;
};

/// What one Ingest/Flush call did, for telemetry and wire responses.
struct IngestOutcome {
  std::size_t enqueued_photos = 0;
  /// Photos still queued (not yet absorbed into the corpus) on return.
  std::size_t pending_photos = 0;
  bool absorbed = false;
  bool replanned = false;
  /// Populated when a drift estimate was computed this call.
  DriftEstimate drift;
  bool drift_evaluated = false;
  /// Why the replan decision went the way it did: "per_batch",
  /// "drift_exceeded", "staleness", "below_epsilon", "flush", "update",
  /// "set_budget", "queued", or "clean" (flush with nothing pending).
  std::string reason;
  IncrementalUpdateStats stats;
};

/// Drives an IncrementalArchiver from a bounded ingest queue. Not internally
/// synchronized — callers (phocusd sessions) serialize access themselves.
class StreamingArchiver {
 public:
  explicit StreamingArchiver(StreamingOptions options);
  ~StreamingArchiver();  // out-of-line: IngestWal is forward-declared

  /// Installs the initial corpus and solves from scratch.
  const ArchivePlan& Initialize(Corpus corpus);

  /// Attaches a write-ahead log and writes its initial checkpoint from the
  /// current state. From here on every accepted batch is fsync'd to the WAL
  /// *before* Ingest returns (acknowledges), absorbs/policy changes/replan
  /// commits are journaled, and the log compacts on each replan commit.
  /// `base_fingerprint` identifies the session history (WalChecksum over the
  /// encoded initial corpus); recovery refuses a mismatching WAL. Call after
  /// Initialize, at most once.
  void AttachWal(std::unique_ptr<IngestWal> wal,
                 std::uint64_t base_fingerprint);
  bool has_wal() const { return wal_ != nullptr; }

  /// Drops the WAL without touching its files: the streamer reverts to
  /// memory-only ingest. Session teardown detaches under the session mutex
  /// *before* deleting the files, so an in-flight request that still holds
  /// the session cannot recreate a headerless log after the delete.
  void DetachWal();

  /// Rebuilds a streamer from `wal`'s checkpoint + log tail: queued batches
  /// are re-queued, absorbs and replan commits are replayed as *decisions*
  /// (never re-decided), so the recovered state — plan bytes included — is
  /// identical to the crash-free run's at the last acknowledged operation.
  /// Torn log tails are truncated; a checkpoint whose base fingerprint
  /// differs from `expected_base_fingerprint` (or is itself unreadable)
  /// throws WalMismatchError — the caller should quarantine the files and
  /// start fresh. The recovered streamer owns the WAL and immediately
  /// compacts it.
  static std::unique_ptr<StreamingArchiver> RecoverFromWal(
      std::unique_ptr<IngestWal> wal,
      std::uint64_t expected_base_fingerprint,
      std::function<double()> now_ms = nullptr);

  /// Enqueues a batch; drains + maybe replans once batch_photos are pending.
  /// Throws IngestOverloadedError (batch rejected whole, state unchanged)
  /// when the queue is full.
  IngestOutcome Ingest(IngestBatch batch);

  /// Ingest's admission check on its own: throws IngestOverloadedError
  /// (counted in `ingest.shed_batches`, recorded as an `ingest.shed` flight
  /// event) when `arriving` more photos would overflow the queue. Callers
  /// that build batches on demand run it first, so a shed batch is never
  /// built.
  void CheckQueueCapacity(std::size_t arriving) const;

  /// Drains the queue and replans if anything is pending or deferred; the
  /// durable "make the plan current" barrier. Safe to retry after a fault.
  /// With nothing pending it still rotates a poisoned WAL, healing it.
  IngestOutcome Flush();

  /// The `update` verb: journals `batch` (ids as for Ingest; no capacity
  /// check, it never waits), drains it with anything queued, and commits a
  /// replan at the current budget. A fault before the batch record is
  /// durable changes nothing; a replan fault after it leaves the arrivals
  /// absorbed-as-archived for a Flush to retry.
  IngestOutcome Update(IngestBatch batch);

  /// The `set_budget` verb: drains the queue and commits a replan at
  /// `budget` (not re-targeted by budget_fraction). A failed replan keeps
  /// the previous budget and plan and journals no commit.
  IngestOutcome SetBudget(Cost budget);

  /// Live policy update (ε, staleness, batch/queue sizes, budget fraction);
  /// takes effect on the next Ingest/Flush. A `queue_photos` below the
  /// pending count drains the queue (and runs the normal replan decision)
  /// at once; the returned outcome says what that drain absorbed and
  /// whether it replanned, and is empty when nothing drained.
  IngestOutcome set_policy(const StreamingOptions& options);

  const ArchivePlan& plan() const { return archiver_.plan(); }
  std::shared_ptr<const ArchivePlan> shared_plan() const {
    return archiver_.shared_plan();
  }
  const Corpus& corpus() const { return archiver_.corpus(); }
  const IncrementalArchiver& archiver() const { return archiver_; }
  std::size_t pending_photos() const { return pending_photos_; }
  std::size_t replans() const { return replans_; }
  std::size_t replans_skipped() const { return replans_skipped_; }
  std::size_t drift_evals() const { return drift_evals_; }
  Cost budget() const { return archiver_.budget(); }

 private:
  double NowMs() const;
  /// Journals `batch` (fsync'd before any state change) and queues it.
  void Enqueue(IngestBatch batch);
  /// Moves the first `batches` queued batches into the corpus, deferred
  /// (shared by DrainQueue and WAL replay); returns the photos absorbed.
  std::size_t AbsorbQueued(std::size_t batches);
  void DrainQueue(IngestOutcome* outcome);
  /// The decide step: re-targets the budget (budget_fraction), then either
  /// skips (below ε) or commits with the reason that triggered.
  void MaybeReplan(bool force, IngestOutcome* outcome);
  /// The one commit step: replans at `budget`, journals the commit marker,
  /// rotates the WAL, and updates counters, flight event and staleness clock.
  /// `built` is the instance MaybeReplan's drift estimate just built, if it
  /// made one; the replan then takes it instead of building its own.
  void CommitReplan(const char* reason, Cost budget, IngestOutcome* outcome,
                    std::optional<ParInstance> built = {});
  WalCheckpoint MakeCheckpoint() const;

  StreamingOptions options_;
  IncrementalArchiver archiver_;
  std::deque<IngestBatch> queue_;
  std::unique_ptr<IngestWal> wal_;
  std::uint64_t base_fingerprint_ = 0;
  std::size_t pending_photos_ = 0;
  std::size_t replans_ = 0;
  std::size_t replans_skipped_ = 0;
  std::size_t drift_evals_ = 0;
  double last_replan_ms_ = 0.0;
  bool initialized_ = false;
};

}  // namespace phocus

#endif  // PHOCUS_PHOCUS_STREAMING_H_
