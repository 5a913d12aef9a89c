#ifndef PHOCUS_PHOCUS_INGEST_WAL_H_
#define PHOCUS_PHOCUS_INGEST_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "phocus/streaming.h"

/// \file ingest_wal.h
/// Per-session write-ahead log for the streaming ingest queue. The vault
/// manifest already survives crashes (atomic tmp+fsync+rename); the ingest
/// queue is the one remaining place where acknowledged client data lives
/// only in memory. IngestWal closes that hole: every accepted IngestBatch
/// is appended — length-prefixed, checksummed, fsync'd — *before* the
/// enqueue is acknowledged, so a `kill -9` with a non-empty queue loses
/// nothing.
///
/// On-disk layout (two files per session under the WAL directory):
///
///   <session>.ckpt   checkpoint: the full streamer state at the last replan
///                    commit — corpus, retained set, archive options, budget,
///                    streaming policy — written atomically (tmp + fsync +
///                    rename, the vault-manifest idiom) and protected by a
///                    trailing whole-file checksum.
///   <session>.log    append-only record log since that checkpoint. Each
///                    record is [u32 length][u64 FNV-64 of payload][payload];
///                    the payload is a record type byte plus its body.
///
/// Record types mirror the streamer's *decisions*, not its computations:
///
///   kBatch        an accepted ingest batch (appended before the ack),
///   kAbsorb       N queued batches drained into the corpus,
///   kPolicy       a live policy change (ε, staleness, batch/queue caps,
///                 budget fraction),
///   kReplanCommit a replan ran to completion under the recorded budget.
///
/// Replaying checkpoint + log therefore reconstructs the exact streamer
/// state without re-deciding anything: absorbs and replans happen where the
/// original process performed them, so the recovered plan is byte-identical
/// to a crash-free run (the underlying solver is deterministic given corpus,
/// retained seed, budget and options).
///
/// On replan commit the log is compacted: a kReplanCommit marker is
/// appended (making the replay self-describing across every crash window),
/// then the checkpoint is atomically rewritten from the post-replan state
/// with a bumped epoch and a fresh log started. A log whose header epoch is
/// older than the checkpoint's is a leftover from a crash between those two
/// steps and is discarded on load. A torn tail (partial final record, bad
/// checksum) is truncated on replay and surfaced to telemetry — exactly the
/// state a mid-append crash leaves behind.
///
/// A *failed* append (ENOSPC partial write, failed fsync) must not leave
/// torn bytes mid-log while the process keeps serving: a later successful
/// append would land after the garbage, and recovery — which cuts the log
/// at the first bad record — would silently drop the acknowledged records
/// behind it. AppendRecord therefore tracks the last durably-synced log
/// offset and truncates back to it whenever an append fails. If that repair
/// itself fails the WAL is poisoned: every further append throws until the
/// next rotation rewrites checkpoint + log from scratch and clears the
/// flag, so no record can ever follow torn bytes.
///
/// Failpoints: `wal.append` (before a record write; `short_write` leaves a
/// torn record and throws the survivable InjectedFault, exercising the
/// truncation repair; `crash` leaves the torn record on disk — the process
/// notionally died mid-write, so no repair runs), `wal.fsync` (between the
/// write and its fsync), `wal.repair` (inside the truncation repair, to
/// force the poison path), `wal.truncate` (at the start of the
/// replan-commit rotation).

namespace phocus {

/// FNV-1a 64 with the standard basis (util/fnv.h) over `bytes` — the WAL's
/// record and checkpoint checksum, and its base-corpus fingerprint.
std::uint64_t WalChecksum(std::string_view bytes);

/// Thrown by recovery when the on-disk WAL cannot belong to the recovering
/// session: base-corpus fingerprint mismatch, or an unreadable/corrupt
/// checkpoint. Retrying cannot help; the caller should Quarantine() the
/// files (preserving them for inspection) and start the session fresh
/// rather than wedge every subsequent request.
class WalMismatchError : public CheckFailure {
 public:
  explicit WalMismatchError(const std::string& what) : CheckFailure(what) {}
};

/// The live-updatable streaming policy knobs, as logged by kPolicy records
/// and carried by checkpoints (mirrors the policy half of StreamingOptions).
struct WalPolicy {
  double epsilon = 0.05;
  double max_staleness_ms = 0.0;
  std::size_t batch_photos = 32;
  std::size_t queue_photos = 1024;
  bool replan_every_batch = false;
  double budget_fraction = 0.0;

  bool operator==(const WalPolicy&) const = default;
};

/// A full streamer snapshot. `incremental` carries the archive options
/// *including the budget in force*; `corpus` and `retained` are the
/// archiver's state; `base_fingerprint` is WalChecksum over the encoded
/// initial corpus, so recovery can refuse a WAL that belongs to a different
/// session history. The snapshot also carries the still-queued batches and
/// the deferred (absorbed-but-unreplanned) photo count: including the queue
/// makes rotation atomic in a single checkpoint rename — there is no window
/// where queued batches live in neither file.
struct WalCheckpoint {
  std::uint64_t epoch = 1;
  std::uint64_t base_fingerprint = 0;
  IncrementalOptions incremental;
  WalPolicy policy;
  Corpus corpus;
  std::vector<PhotoId> retained;
  std::uint64_t deferred_photos = 0;
  std::vector<IngestBatch> queued;
};

/// One replayed log record.
struct WalRecord {
  enum class Type : std::uint8_t {
    kBatch = 1,
    kAbsorb = 2,
    kPolicy = 3,
    kReplanCommit = 4,
  };

  Type type = Type::kBatch;
  IngestBatch batch;               ///< kBatch
  std::size_t absorb_batches = 0;  ///< kAbsorb
  WalPolicy policy;                ///< kPolicy
  Cost budget = 0;                 ///< kReplanCommit: budget the replan used
};

/// The durable file pair for one session. Not internally synchronized —
/// the owning StreamingArchiver runs under its session's mutex.
class IngestWal {
 public:
  /// Binds to `<directory>/<session_id>.{ckpt,log}` without touching disk.
  IngestWal(std::string directory, std::string session_id);

  /// True when a checkpoint for this session exists in `directory`.
  static bool Exists(const std::string& directory,
                     const std::string& session_id);

  const std::string& checkpoint_path() const { return checkpoint_path_; }
  const std::string& log_path() const { return log_path_; }
  std::uint64_t epoch() const { return epoch_; }

  /// True after an append failure whose truncation repair also failed: the
  /// log may end in torn bytes, so every append throws until Rotate()
  /// rewrites checkpoint + log and clears the flag.
  bool poisoned() const { return poisoned_; }

  /// Creates the initial checkpoint + empty log (fresh session).
  void Start(const WalCheckpoint& checkpoint);

  /// Fsync'd record appends; the caller acknowledges only after return.
  void AppendBatch(const IngestBatch& batch);
  void AppendAbsorb(std::size_t batches);
  void AppendPolicy(const WalPolicy& policy);
  void AppendReplanCommit(Cost budget);

  /// Replan-commit compaction: atomically replaces the checkpoint with
  /// `checkpoint` under a bumped epoch and starts a fresh log. Call after
  /// AppendReplanCommit so every crash window replays to the same state.
  void Rotate(WalCheckpoint checkpoint);

  struct LoadResult {
    WalCheckpoint checkpoint;
    std::vector<WalRecord> records;  ///< the valid log tail, in order
    bool torn_tail = false;  ///< a partial/corrupt trailing record was cut
    bool stale_log = false;  ///< log predated the checkpoint; discarded
  };

  /// Reads checkpoint + log for recovery, adopting the checkpoint's epoch.
  /// Throws CheckFailure when the checkpoint itself is unreadable or corrupt
  /// (the log, being the crash frontier, degrades gracefully instead).
  LoadResult Load();

  /// Deletes both files (clean session close).
  void Remove();

  /// Renames both files aside (`.quarantined` suffix, replacing any earlier
  /// quarantine) instead of deleting them: for WALs recovery refused
  /// (WalMismatchError). The pre-crash queue stays on disk for inspection
  /// while the session restarts with a fresh WAL.
  void Quarantine();

 private:
  /// `kind` must be a string literal (flight-recorder detail).
  void AppendRecord(const std::string& payload, const char* kind);
  /// Cuts the log back to the last durably-synced offset after a failed
  /// append; poisons the WAL when the repair itself fails. Never throws —
  /// it runs while the append failure is propagating.
  void TruncateToSynced();
  void WriteCheckpointAtomic(const WalCheckpoint& checkpoint);
  void StartFreshLog();

  std::string directory_;
  std::string session_id_;
  std::string checkpoint_path_;
  std::string log_path_;
  std::uint64_t epoch_ = 1;
  /// Log bytes known durable (header + every fsync'd record); the truncation
  /// target when an append fails part-way.
  std::uint64_t synced_bytes_ = 0;
  bool poisoned_ = false;
};

}  // namespace phocus

#endif  // PHOCUS_PHOCUS_INGEST_WAL_H_
