#include "phocus/ingest_wal.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "datagen/corpus_io.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/json.h"  // ReadFile/WriteFile/SyncFile
#include "util/logging.h"

namespace phocus {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x50484f4357414c43ULL;  // "PHOCWALC"
constexpr std::uint64_t kLogMagic = 0x50484f4357414c4cULL;         // "PHOCWALL"
constexpr std::uint32_t kVersion = 1;
/// Log header: magic (8) + version (4) + epoch (8).
constexpr std::size_t kLogHeaderBytes = 20;
/// Record frame: payload length (4) + payload checksum (8).
constexpr std::size_t kRecordFrameBytes = 12;

void WritePolicy(BinaryWriter& writer, const WalPolicy& policy) {
  writer.WriteF64(policy.epsilon);
  writer.WriteF64(policy.max_staleness_ms);
  writer.WriteU64(policy.batch_photos);
  writer.WriteU64(policy.queue_photos);
  writer.WriteU8(policy.replan_every_batch ? 1 : 0);
  writer.WriteF64(policy.budget_fraction);
}

WalPolicy ReadPolicy(BinaryReader& reader) {
  WalPolicy policy;
  policy.epsilon = reader.ReadF64();
  policy.max_staleness_ms = reader.ReadF64();
  policy.batch_photos = static_cast<std::size_t>(reader.ReadU64());
  policy.queue_photos = static_cast<std::size_t>(reader.ReadU64());
  policy.replan_every_batch = reader.ReadU8() != 0;
  policy.budget_fraction = reader.ReadF64();
  return policy;
}

void WriteBatch(BinaryWriter& writer, const IngestBatch& batch) {
  writer.WriteU32(static_cast<std::uint32_t>(batch.photos.size()));
  for (const CorpusPhoto& photo : batch.photos) {
    EncodePhotoTo(writer, photo);
  }
  writer.WriteU32(static_cast<std::uint32_t>(batch.subsets.size()));
  for (const SubsetSpec& subset : batch.subsets) {
    EncodeSubsetTo(writer, subset);
  }
  std::vector<std::uint32_t> required(batch.required.begin(),
                                      batch.required.end());
  writer.WriteU32Vector(required);
}

IngestBatch ReadBatch(BinaryReader& reader) {
  IngestBatch batch;
  const std::uint32_t photos = reader.ReadU32();
  PHOCUS_CHECK(photos <= 1'000'000, "corrupt wal batch: implausible photo count");
  for (std::uint32_t i = 0; i < photos; ++i) {
    batch.photos.push_back(DecodePhotoFrom(reader));
  }
  const std::uint32_t subsets = reader.ReadU32();
  PHOCUS_CHECK(subsets <= 1'000'000,
               "corrupt wal batch: implausible subset count");
  for (std::uint32_t i = 0; i < subsets; ++i) {
    // Member ids live in the session's post-absorb id space, validated
    // against the reconstructed corpus at replay-absorb time, not here.
    batch.subsets.push_back(DecodeSubsetFrom(reader));
  }
  for (std::uint32_t p : reader.ReadU32Vector()) {
    batch.required.push_back(p);
  }
  return batch;
}

/// A record payload starts with its type byte; the Append* calls write the
/// body straight after it.
BinaryWriter RecordWriter(WalRecord::Type type) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<std::uint8_t>(type));
  return writer;
}

WalRecord DecodeRecordPayload(std::string_view payload) {
  BinaryReader reader(payload);
  WalRecord record;
  const std::uint8_t type = reader.ReadU8();
  PHOCUS_CHECK(type >= static_cast<std::uint8_t>(WalRecord::Type::kBatch) &&
                   type <= static_cast<std::uint8_t>(
                               WalRecord::Type::kReplanCommit),
               "corrupt wal record type");
  record.type = static_cast<WalRecord::Type>(type);
  switch (record.type) {
    case WalRecord::Type::kBatch:
      record.batch = ReadBatch(reader);
      break;
    case WalRecord::Type::kAbsorb:
      record.absorb_batches = static_cast<std::size_t>(reader.ReadU64());
      break;
    case WalRecord::Type::kPolicy:
      record.policy = ReadPolicy(reader);
      break;
    case WalRecord::Type::kReplanCommit:
      record.budget = static_cast<Cost>(reader.ReadU64());
      break;
  }
  PHOCUS_CHECK(reader.AtEnd(), "trailing bytes in wal record");
  return record;
}

std::string EncodeCheckpointBody(const WalCheckpoint& checkpoint) {
  BinaryWriter writer;
  writer.WriteU64(kCheckpointMagic);
  writer.WriteU32(kVersion);
  writer.WriteU64(checkpoint.epoch);
  writer.WriteU64(checkpoint.base_fingerprint);
  const ArchiveOptions& archive = checkpoint.incremental.archive;
  writer.WriteU64(static_cast<std::uint64_t>(archive.budget));
  writer.WriteU8(archive.representation.context_normalize ? 1 : 0);
  writer.WriteF64(archive.representation.exif_weight);
  writer.WriteF64(archive.representation.sparsify_tau);
  // Retired LSH option slots (min subset size, bits, seed), written as their
  // last defaults so WALs from before and after the removal read alike.
  writer.WriteU64(192);
  writer.WriteU32(128);
  writer.WriteU64(0xfeed);
  writer.WriteU8(archive.compute_online_bound ? 1 : 0);
  writer.WriteU64(archive.coverage_rows);
  writer.WriteU8(1);  // retired rebalance flag, written as its only value
  WritePolicy(writer, checkpoint.policy);
  writer.WriteString(EncodeCorpus(checkpoint.corpus));
  std::vector<std::uint32_t> retained(checkpoint.retained.begin(),
                                      checkpoint.retained.end());
  writer.WriteU32Vector(retained);
  writer.WriteU64(checkpoint.deferred_photos);
  writer.WriteU32(static_cast<std::uint32_t>(checkpoint.queued.size()));
  for (const IngestBatch& batch : checkpoint.queued) {
    WriteBatch(writer, batch);
  }
  return writer.TakeBuffer();
}

WalCheckpoint DecodeCheckpointBody(std::string_view body,
                                   const std::string& path) {
  BinaryReader reader(body);
  PHOCUS_CHECK(reader.ReadU64() == kCheckpointMagic,
               "not an ingest wal checkpoint: " + path);
  PHOCUS_CHECK(reader.ReadU32() == kVersion,
               "unsupported ingest wal checkpoint version: " + path);
  WalCheckpoint checkpoint;
  checkpoint.epoch = reader.ReadU64();
  checkpoint.base_fingerprint = reader.ReadU64();
  ArchiveOptions& archive = checkpoint.incremental.archive;
  archive.budget = static_cast<Cost>(reader.ReadU64());
  archive.representation.context_normalize = reader.ReadU8() != 0;
  archive.representation.exif_weight = reader.ReadF64();
  archive.representation.sparsify_tau = reader.ReadF64();
  reader.ReadU64();  // retired LSH option slots: ignored
  reader.ReadU32();
  reader.ReadU64();
  archive.compute_online_bound = reader.ReadU8() != 0;
  archive.coverage_rows = static_cast<std::size_t>(reader.ReadU64());
  reader.ReadU8();  // retired rebalance flag: ignored
  checkpoint.policy = ReadPolicy(reader);
  checkpoint.corpus = DecodeCorpus(reader.ReadString());
  for (std::uint32_t p : reader.ReadU32Vector()) {
    PHOCUS_CHECK(p < checkpoint.corpus.num_photos(),
                 "corrupt wal checkpoint: retained id out of range");
    checkpoint.retained.push_back(p);
  }
  checkpoint.deferred_photos = reader.ReadU64();
  const std::uint32_t queued = reader.ReadU32();
  PHOCUS_CHECK(queued <= 1'000'000,
               "corrupt wal checkpoint: implausible queued batch count");
  for (std::uint32_t i = 0; i < queued; ++i) {
    checkpoint.queued.push_back(ReadBatch(reader));
  }
  PHOCUS_CHECK(reader.AtEnd(), "trailing bytes in wal checkpoint: " + path);
  return checkpoint;
}

}  // namespace

std::uint64_t WalChecksum(std::string_view bytes) {
  return Fnv1a64(bytes, kFnv64Basis);
}

IngestWal::IngestWal(std::string directory, std::string session_id)
    : directory_(std::move(directory)), session_id_(std::move(session_id)) {
  PHOCUS_CHECK(!directory_.empty(), "ingest wal needs a directory");
  PHOCUS_CHECK(!session_id_.empty(), "ingest wal needs a session id");
  checkpoint_path_ = directory_ + "/" + session_id_ + ".ckpt";
  log_path_ = directory_ + "/" + session_id_ + ".log";
}

bool IngestWal::Exists(const std::string& directory,
                       const std::string& session_id) {
  return std::filesystem::exists(directory + "/" + session_id + ".ckpt");
}

void IngestWal::Start(const WalCheckpoint& checkpoint) {
  epoch_ = checkpoint.epoch;
  std::filesystem::create_directories(directory_);
  WriteCheckpointAtomic(checkpoint);
  StartFreshLog();
}

// `kind` doubles as a flight-recorder detail, so it must be a string
// literal (slots store raw pointers; see flight_recorder.h).
void IngestWal::AppendBatch(const IngestBatch& batch) {
  BinaryWriter writer = RecordWriter(WalRecord::Type::kBatch);
  WriteBatch(writer, batch);
  AppendRecord(writer.TakeBuffer(), "batch");
}

void IngestWal::AppendAbsorb(std::size_t batches) {
  BinaryWriter writer = RecordWriter(WalRecord::Type::kAbsorb);
  writer.WriteU64(batches);
  AppendRecord(writer.TakeBuffer(), "absorb");
}

void IngestWal::AppendPolicy(const WalPolicy& policy) {
  BinaryWriter writer = RecordWriter(WalRecord::Type::kPolicy);
  WritePolicy(writer, policy);
  AppendRecord(writer.TakeBuffer(), "policy");
}

void IngestWal::AppendReplanCommit(Cost budget) {
  BinaryWriter writer = RecordWriter(WalRecord::Type::kReplanCommit);
  writer.WriteU64(static_cast<std::uint64_t>(budget));
  AppendRecord(writer.TakeBuffer(), "replan_commit");
}

void IngestWal::AppendRecord(const std::string& payload, const char* kind) {
  PHOCUS_CHECK(!poisoned_,
               "ingest wal poisoned by an unrepaired append failure; "
               "appends are rejected until the next rotation (flush): " +
                   log_path_);
  BinaryWriter frame;
  frame.WriteU32(static_cast<std::uint32_t>(payload.size()));
  frame.WriteU64(WalChecksum(payload));

  try {
    if (failpoint::AnyActive()) {
      const failpoint::Action action = failpoint::Evaluate("wal.append");
      if (action.kind == failpoint::ActionKind::kShortWrite ||
          action.kind == failpoint::ActionKind::kCrash) {
        // Leave a genuinely torn record — frame plus half the payload, no
        // fsync — then fail. `short_write` models a survivable partial
        // write (ENOSPC): the catch below truncates the tear away and the
        // process keeps serving. `crash` models dying mid-write: the
        // InjectedCrash skips the repair, so the tear stays on disk for
        // recovery to cut.
        std::ofstream torn(log_path_, std::ios::binary | std::ios::app);
        torn.write(frame.buffer().data(),
                   static_cast<std::streamsize>(frame.buffer().size()));
        torn.write(payload.data(),
                   static_cast<std::streamsize>(payload.size() / 2));
        torn.close();
        if (action.kind == failpoint::ActionKind::kCrash) {
          throw failpoint::InjectedCrash("injected crash mid wal.append");
        }
        throw failpoint::InjectedFault("injected short write at wal.append");
      }
      failpoint::Perform("wal.append", action);
    }

    {
      std::ofstream out(log_path_, std::ios::binary | std::ios::app);
      PHOCUS_CHECK(out.good(), "cannot open ingest wal log: " + log_path_);
      out.write(frame.buffer().data(),
                static_cast<std::streamsize>(frame.buffer().size()));
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      out.close();
      PHOCUS_CHECK(!out.fail(), "ingest wal append failed: " + log_path_);
    }

    PHOCUS_FAILPOINT("wal.fsync");
    SyncFile(log_path_);
  } catch (const failpoint::InjectedCrash&) {
    // Simulated kill at this instruction: a real dead process runs no
    // repair, so the disk keeps whatever the write left. Poison the
    // in-memory object so a harness that keeps it alive cannot append a
    // record after the tear.
    poisoned_ = true;
    throw;
  } catch (...) {
    // Survivable failure (partial write, failed fsync) with the process
    // still serving: cut the log back to the last durably-synced offset so
    // the next successful append can never land after torn or un-synced
    // bytes — recovery stops at the first bad record, so anything behind
    // torn bytes would silently vanish even though it was acknowledged.
    TruncateToSynced();
    throw;
  }

  synced_bytes_ += kRecordFrameBytes + payload.size();
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("ingest.wal_appends").Increment();
  registry.GetCounter("ingest.wal_append_bytes")
      .Add(kRecordFrameBytes + payload.size());
  registry.GetCounter(std::string("ingest.wal_records.") + kind).Increment();
  registry.GetCounter("ingest.wal_fsyncs").Increment();
  telemetry::FlightRecorder::Record("ingest.wal_append", kind,
                                    kRecordFrameBytes + payload.size(),
                                    epoch_);
}

void IngestWal::TruncateToSynced() {
  try {
    PHOCUS_FAILPOINT("wal.repair");
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(log_path_, ec);
    PHOCUS_CHECK(!ec, "cannot stat ingest wal log for repair: " + log_path_);
    if (size > synced_bytes_) {
      std::filesystem::resize_file(log_path_, synced_bytes_, ec);
      PHOCUS_CHECK(!ec, "ingest wal truncation repair failed: " + log_path_);
      // The truncation must be durable before the next append lands.
      SyncFile(log_path_);
      telemetry::MetricsRegistry::Current()
          .GetCounter("ingest.wal_repairs")
          .Increment();
      telemetry::FlightRecorder::Record("ingest.wal_repair",
                                        telemetry::InternedName(session_id_),
                                        size - synced_bytes_, epoch_);
      PHOCUS_LOG(kWarn) << "ingest wal " << log_path_ << ": append failed, "
                        << (size - synced_bytes_)
                        << " torn byte(s) truncated away";
    }
  } catch (...) {
    // The repair itself failed: the log may end in torn bytes. Refuse all
    // further appends until the next rotation rewrites checkpoint + log —
    // written-after-garbage records are the one thing that must not exist.
    poisoned_ = true;
    telemetry::MetricsRegistry::Current()
        .GetCounter("ingest.wal_poisonings")
        .Increment();
    telemetry::FlightRecorder::Record("ingest.wal_poisoned",
                                      telemetry::InternedName(session_id_),
                                      synced_bytes_, epoch_);
    PHOCUS_LOG(kWarn) << "ingest wal " << log_path_
                      << ": truncation repair failed; poisoned until the "
                         "next rotation";
  }
}

void IngestWal::Rotate(WalCheckpoint checkpoint) {
  // The commit marker for this rotation is already durable in the old log
  // (AppendReplanCommit), so every crash window from here on replays to the
  // same state: old checkpoint + marker, or new checkpoint + stale/fresh log.
  PHOCUS_FAILPOINT("wal.truncate");
  checkpoint.epoch = epoch_ + 1;
  WriteCheckpointAtomic(checkpoint);
  epoch_ = checkpoint.epoch;
  StartFreshLog();
  auto& registry = telemetry::MetricsRegistry::Current();
  registry.GetCounter("ingest.wal_rotations").Increment();
  telemetry::FlightRecorder::Record("ingest.wal_rotate",
                                    telemetry::InternedName(session_id_),
                                    epoch_, checkpoint.corpus.num_photos());
}

void IngestWal::WriteCheckpointAtomic(const WalCheckpoint& checkpoint) {
  std::string data = EncodeCheckpointBody(checkpoint);
  BinaryWriter tail;
  tail.WriteU64(WalChecksum(data));
  data += tail.buffer();
  const std::string temp = checkpoint_path_ + ".tmp";
  WriteFile(temp, data);
  SyncFile(temp);
  std::filesystem::rename(temp, checkpoint_path_);
  // The rename is only durable once the directory entry is synced — without
  // this a power loss can make the whole checkpoint vanish even though the
  // batch data was fsync'd before the ack.
  SyncDirectory(directory_);
}

void IngestWal::StartFreshLog() {
  BinaryWriter header;
  header.WriteU64(kLogMagic);
  header.WriteU32(kVersion);
  header.WriteU64(epoch_);
  const std::string temp = log_path_ + ".tmp";
  WriteFile(temp, header.buffer());
  SyncFile(temp);
  std::filesystem::rename(temp, log_path_);
  SyncDirectory(directory_);
  synced_bytes_ = kLogHeaderBytes;
  // A fresh log supersedes whatever torn bytes poisoned the old one.
  poisoned_ = false;
}

IngestWal::LoadResult IngestWal::Load() {
  LoadResult result;
  // An unreadable or corrupt checkpoint can never become readable by
  // retrying, so surface it as the quarantinable WalMismatchError rather
  // than a generic failure that would wedge every request on the session.
  try {
    const std::string raw = ReadFile(checkpoint_path_);
    PHOCUS_CHECK(raw.size() > 8,
                 "ingest wal checkpoint truncated: " + checkpoint_path_);
    const std::string_view body =
        std::string_view(raw).substr(0, raw.size() - 8);
    BinaryReader tail(std::string_view(raw).substr(raw.size() - 8));
    PHOCUS_CHECK(
        WalChecksum(body) == tail.ReadU64(),
        "ingest wal checkpoint checksum mismatch: " + checkpoint_path_);
    result.checkpoint = DecodeCheckpointBody(body, checkpoint_path_);
  } catch (const WalMismatchError&) {
    throw;
  } catch (const CheckFailure& failure) {
    throw WalMismatchError(failure.what());
  }
  epoch_ = result.checkpoint.epoch;

  if (!std::filesystem::exists(log_path_)) {
    return result;
  }
  const std::string log = ReadFile(log_path_);
  if (log.size() < kLogHeaderBytes) {
    // A header that never finished writing: the log carries nothing yet.
    result.torn_tail = !log.empty();
  } else {
    BinaryReader header(std::string_view(log).substr(0, kLogHeaderBytes));
    PHOCUS_CHECK(header.ReadU64() == kLogMagic,
                 "not an ingest wal log: " + log_path_);
    PHOCUS_CHECK(header.ReadU32() == kVersion,
                 "unsupported ingest wal log version: " + log_path_);
    const std::uint64_t log_epoch = header.ReadU64();
    if (log_epoch != result.checkpoint.epoch) {
      // A crash between the checkpoint rename and the log reset left the
      // previous epoch's log behind; its effects are inside the checkpoint.
      result.stale_log = true;
      return result;
    }
    std::size_t pos = kLogHeaderBytes;
    while (log.size() - pos >= kRecordFrameBytes) {
      BinaryReader frame(
          std::string_view(log).substr(pos, kRecordFrameBytes));
      const std::uint32_t length = frame.ReadU32();
      const std::uint64_t checksum = frame.ReadU64();
      if (log.size() - pos - kRecordFrameBytes < length) break;
      const std::string_view payload =
          std::string_view(log).substr(pos + kRecordFrameBytes, length);
      if (WalChecksum(payload) != checksum) break;
      try {
        result.records.push_back(DecodeRecordPayload(payload));
      } catch (const CheckFailure&) {
        break;  // checksum collisions are astronomically unlikely, but cheap
      }
      pos += kRecordFrameBytes + length;
    }
    result.torn_tail = pos < log.size();
    // The valid prefix is the durable frontier: should the caller append
    // before rotating, a failed append truncates back to here.
    synced_bytes_ = pos;
  }
  if (result.torn_tail) {
    telemetry::MetricsRegistry::Current()
        .GetCounter("ingest.wal_torn_tails")
        .Increment();
    telemetry::FlightRecorder::Record("ingest.wal_torn",
                                      telemetry::InternedName(session_id_),
                                      result.records.size(), epoch_);
    PHOCUS_LOG(kWarn) << "ingest wal " << log_path_
                      << ": torn tail truncated after "
                      << result.records.size() << " valid record(s)";
  }
  return result;
}

void IngestWal::Remove() {
  std::error_code ec;
  std::filesystem::remove(checkpoint_path_, ec);
  std::filesystem::remove(log_path_, ec);
  std::filesystem::remove(checkpoint_path_ + ".tmp", ec);
  std::filesystem::remove(log_path_ + ".tmp", ec);
}

void IngestWal::Quarantine() {
  std::error_code ec;
  std::filesystem::remove(checkpoint_path_ + ".tmp", ec);
  std::filesystem::remove(log_path_ + ".tmp", ec);
  // rename replaces an earlier quarantine of the same session id.
  std::filesystem::rename(checkpoint_path_, checkpoint_path_ + ".quarantined",
                          ec);
  if (std::filesystem::exists(log_path_)) {
    std::filesystem::rename(log_path_, log_path_ + ".quarantined", ec);
  }
  try {
    SyncDirectory(directory_);
  } catch (const CheckFailure&) {
    // Best effort: the quarantine is advisory bookkeeping, not an ack.
  }
  telemetry::MetricsRegistry::Current()
      .GetCounter("ingest.wal_quarantines")
      .Increment();
  telemetry::FlightRecorder::Record("ingest.wal_quarantine",
                                    telemetry::InternedName(session_id_),
                                    epoch_, 0);
  PHOCUS_LOG(kWarn) << "ingest wal for session " << session_id_
                    << " quarantined to " << checkpoint_path_
                    << ".quarantined (recovery refused it); the session "
                       "starts fresh";
}

}  // namespace phocus
