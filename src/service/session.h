#ifndef PHOCUS_SERVICE_SESSION_H_
#define PHOCUS_SERVICE_SESSION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "phocus/incremental.h"
#include "phocus/streaming.h"
#include "phocus/system.h"
#include "service/plan_cache.h"
#include "util/json.h"

/// \file session.h
/// Per-client serving state for phocusd. A Session answers repeated
/// questions about one corpus, which it holds once and plans in place.
/// Beside it the session keeps the most recent plan (for
/// coverage/explain/archive_to_vault) and a cached corpus fingerprint that
/// keys the server-wide PlanCache and doubles as the WAL's base fingerprint.
///
/// The session owns its base corpus until the first streaming touch
/// (`update`, `set_budget`, `ingest`, `ingest_flush`) creates — or recovers
/// from the WAL — a StreamingArchiver. From then on the streamer owns the
/// corpus and is its only mutator; all four verbs share one post-call sync.
///
/// Locking is fine-grained: the SessionManager's map lock is only held for
/// id lookup; all real work happens under the individual session's mutex, so
/// requests against different sessions never serialize on each other.

namespace phocus {
namespace service {

class Session {
 public:
  /// `wal_dir` (optional) enables ingest durability: the session's streaming
  /// queue is write-ahead logged under `<wal_dir>/<id>.{ckpt,log}`, and a
  /// session re-created with the same id and corpus after a crash recovers
  /// the queued-but-undrained photos on its first ingest/flush.
  Session(std::string id, Corpus corpus, std::string wal_dir = "");

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return id_; }

  /// Corpus summary: {"session", "corpus", "num_photos", "total_bytes",
  /// "num_subsets", "num_required"}.
  Json Describe();

  struct PlanOutcome {
    std::shared_ptr<const ArchivePlan> plan;
    bool from_cache = false;
  };

  /// Full PlanCorpus of the session's corpus under `options`, consulting
  /// (and feeding) `cache`. A cache hit is served without touching the
  /// solver; a miss plans the corpus in place and keeps only the plan.
  PlanOutcome Plan(const ArchiveOptions& options, PlanCache* cache);

  /// Streaming-ingest policy knobs carried on each `ingest` request (see
  /// StreamingOptions for semantics). Applied live before the batch.
  struct IngestConfig {
    double epsilon = 0.05;
    double max_staleness_ms = 0.0;
    std::size_t batch_photos = 32;
    std::size_t queue_photos = 1024;
    bool replan_every_batch = false;
    double budget_fraction = 0.0;
    /// When > 0, the batch also carries one extra subset referencing this
    /// many already-ingested photos — backfill of an old album arriving
    /// late / out of order.
    std::size_t backfill_members = 0;
  };

  /// What one streaming verb did (update, set_budget, ingest, ingest_flush).
  struct IngestResult {
    IngestOutcome outcome;
    /// The fresh plan when the call replanned (always, for update and
    /// set_budget); null when an ingest merely queued or stayed below ε.
    std::shared_ptr<const ArchivePlan> plan;
    std::size_t num_photos = 0;  ///< corpus photos after the call (absorbed)
    /// Session-lifetime totals, for wire responses and scenario guards.
    std::size_t replans = 0;
    std::size_t replans_skipped = 0;
    std::size_t drift_evals = 0;
  };

  /// Folds `count` freshly generated photos (deterministic from `seed`) into
  /// the plan via StreamingArchiver::Update. The first streaming touch
  /// performs the initial solve with `options`.
  IngestResult AddGeneratedPhotos(std::size_t count, std::uint64_t seed,
                                  const ArchiveOptions& options);

  /// Re-plans incrementally under a new budget (StreamingArchiver::SetBudget;
  /// a first touch solves at `budget` instead). Throws InfeasibleBudgetError
  /// when the budget cannot cover the required set S0.
  IngestResult SetBudget(Cost budget, const ArchiveOptions& options);

  /// Enqueues `count` deterministically generated photos (from `seed`) into
  /// the session's bounded streaming queue. The first ingest (or update)
  /// performs the initial solve with `options`. Throws IngestOverloadedError
  /// when the queue is full. `now_ms` (may be null) feeds the staleness
  /// fallback clock.
  IngestResult Ingest(std::size_t count, std::uint64_t seed,
                      const ArchiveOptions& options, const IngestConfig& config,
                      std::function<double()> now_ms);

  /// Drains the streaming queue and replans if anything is pending — the
  /// client-visible "make the plan current" barrier. When a WAL for this
  /// session survives a crash, the flush first replays it (so a bare
  /// restart + ingest_flush recovers the pre-crash queue).
  IngestResult IngestFlush();

  /// Per-subset coverage rows of the last plan (top_k = 0 keeps all).
  Json Coverage(std::size_t top_k);

  /// Human-readable retention explanation for one photo of the last plan.
  Json Explain(PhotoId photo);

  /// Stores the last plan's cold set into an ArchiveVault at `directory`
  /// (created if missing) using the vault's deferred-manifest batch path.
  Json ArchiveToVault(const std::string& directory, int render_size);

  /// Hex corpus fingerprint (content hash; mutations change it).
  std::string Fingerprint();

  /// Session teardown: quiesces under the session mutex — detaches the
  /// streamer's WAL so no in-flight request (still holding the shared_ptr)
  /// can recreate the files — then deletes them. Called by
  /// SessionManager::Remove outside the manager's map lock.
  void CloseWal();

 private:
  /// The base corpus before the first streaming touch, the streamer's after.
  const Corpus& CorpusLocked() const;
  /// FNV-1a over EncodeCorpus(CorpusLocked()), cached until the corpus grows.
  std::uint64_t FingerprintLocked();
  /// True when wal_dir is set and a WAL checkpoint for this id is on disk.
  bool HasRecoverableWalLocked() const;
  /// Lazily creates the streaming archiver (initial solve included); the
  /// budget comes from `options` or falls back to the last plan's. With a
  /// wal_dir configured, either recovers the surviving WAL (replaying the
  /// queue tail) or attaches a fresh one.
  StreamingArchiver& StreamerLocked(const ArchiveOptions& options);
  /// The post-call sync of the streaming verbs: runs `call`, drops the
  /// fingerprint of a grown corpus (also on a throw — a failed commit may have
  /// absorbed journaled arrivals) and publishes a replanned plan.
  IngestResult StreamLocked(
      const std::function<IngestOutcome(StreamingArchiver&)>& call);

  const std::string id_;
  const std::string wal_dir_;  ///< empty = ingest durability off
  std::mutex mutex_;
  Corpus corpus_;  ///< the base corpus; released once streamer_ owns it
  std::unique_ptr<StreamingArchiver> streamer_;  ///< from the first touch
  std::shared_ptr<const ArchivePlan> last_plan_;
  ArchiveOptions last_options_;
  std::optional<std::uint64_t> fingerprint_;  ///< empty = stale
};

/// Thread-safe registry of live sessions.
class SessionManager {
 public:
  SessionManager() = default;

  /// Enables ingest WALs for sessions created from here on (see Session).
  /// Session ids restart from s-1 on every process start, so a restarted
  /// phocusd that re-creates its sessions in the same order reattaches each
  /// one to its surviving WAL. A session recreated in a different order (or
  /// over a different base corpus) fails the WAL's fingerprint check; the
  /// mismatched WAL is then quarantined — renamed aside with a warning,
  /// never silently deleted — and the session starts fresh.
  void set_wal_dir(std::string wal_dir) { wal_dir_ = std::move(wal_dir); }
  const std::string& wal_dir() const { return wal_dir_; }

  /// Registers a new session around `corpus` and returns it.
  std::shared_ptr<Session> Create(Corpus corpus);

  /// Looks a session up; nullptr when unknown.
  std::shared_ptr<Session> Find(const std::string& id) const;

  /// Unregisters the session; a configured WAL is deleted with it (a closed
  /// session has nothing left to recover). The session is quiesced first —
  /// see Session::CloseWal — so a request that raced the close cannot
  /// resurrect the WAL files.
  bool Remove(const std::string& id);
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;
  std::string wal_dir_;
};

}  // namespace service
}  // namespace phocus

#endif  // PHOCUS_SERVICE_SESSION_H_
