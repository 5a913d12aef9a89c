#include "storage/vault.h"

#include <filesystem>
#include <fstream>

#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "util/fnv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/lzss.h"
#include "util/strings.h"

namespace phocus {

namespace fs = std::filesystem;

std::string ArchiveVault::HashPayload(std::string_view payload) {
  return StrFormat("%016llx", static_cast<unsigned long long>(Fnv1a64(
                                  payload, kFnv64TruncatedBasis)));
}

ArchiveVault::ArchiveVault(std::string directory)
    : directory_(std::move(directory)) {
  PHOCUS_CHECK(fs::is_directory(directory_),
               "vault directory does not exist: " + directory_);
  // A crash between the temp write and the rename leaves manifest.json.tmp
  // behind; it was never visible, so recovery is simply discarding it.
  std::error_code ignored;
  fs::remove(directory_ + "/manifest.json.tmp", ignored);
  LoadManifest();
}

std::string ArchiveVault::ObjectPath(const std::string& hash) const {
  return directory_ + "/objects/" + hash + ".lzss";
}

ArchiveVault::Receipt ArchiveVault::Store(const std::string& key,
                                          const std::string& payload,
                                          StoreDurability durability) {
  PHOCUS_CHECK(!key.empty(), "vault key must not be empty");
  Receipt receipt;
  receipt.content_hash = HashPayload(payload);
  receipt.original_bytes = payload.size();

  auto& registry = telemetry::MetricsRegistry::Current();
  auto size_it = object_sizes_.find(receipt.content_hash);
  if (size_it != object_sizes_.end()) {
    receipt.deduplicated = true;
    receipt.stored_bytes = size_it->second;
    registry.GetCounter("storage.vault.dedup_hits").Add(1);
  } else {
    fs::create_directories(directory_ + "/objects");
    const std::string compressed = LzssCompress(payload);
    PHOCUS_FAILPOINT("vault.object_write");
    WriteFile(ObjectPath(receipt.content_hash), compressed);
    receipt.stored_bytes = compressed.size();
    object_sizes_[receipt.content_hash] = receipt.stored_bytes;
    registry.GetCounter("storage.vault.bytes_written").Add(compressed.size());
  }
  registry.GetCounter("storage.vault.stores").Add(1);
  const auto previous = entries_.find(key);
  const bool had_previous = previous != entries_.end();
  const Entry previous_entry = had_previous ? previous->second : Entry{};
  entries_[key] = {receipt.content_hash, receipt.original_bytes};
  dirty_ = true;
  if (durability == StoreDurability::kFlushEach) {
    try {
      SaveManifest();
    } catch (...) {
      // A flushing store either persists the mapping or leaves it as it
      // was: roll the key back so memory matches the on-disk manifest.
      // (An already-written object stays on disk — it is content-addressed
      // and unreferenced, so a later identical store safely reuses it.)
      if (had_previous) {
        entries_[key] = previous_entry;
      } else {
        entries_.erase(key);
      }
      throw;
    }
  }
  return receipt;
}

void ArchiveVault::Flush() {
  PHOCUS_FAILPOINT("vault.manifest_flush");
  if (dirty_) SaveManifest();
}

std::string ArchiveVault::Fetch(const std::string& key) const {
  auto it = entries_.find(key);
  PHOCUS_CHECK(it != entries_.end(), "vault key not found: " + key);
  const std::string payload =
      LzssDecompress(ReadFile(ObjectPath(it->second.hash)));
  PHOCUS_CHECK(HashPayload(payload) == it->second.hash,
               "vault object corrupt for key: " + key);
  return payload;
}

bool ArchiveVault::Contains(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

std::vector<std::string> ArchiveVault::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)entry;
    keys.push_back(key);
  }
  return keys;
}

std::size_t ArchiveVault::num_objects() const { return object_sizes_.size(); }

Cost ArchiveVault::StoredBytes() const {
  Cost total = 0;
  for (const auto& [hash, size] : object_sizes_) {
    (void)hash;
    total += size;
  }
  return total;
}

Cost ArchiveVault::OriginalBytes() const {
  Cost total = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    total += entry.original_bytes;
  }
  return total;
}

void ArchiveVault::SaveManifest() const {
  Json manifest = Json::Object();
  manifest.Set("format", "phocus-vault-manifest");
  manifest.Set("version", 1);
  Json entries = Json::Object();
  for (const auto& [key, entry] : entries_) {
    Json record = Json::Object();
    record.Set("hash", entry.hash);
    record.Set("original_bytes", entry.original_bytes);
    entries.Set(key, std::move(record));
  }
  manifest.Set("entries", std::move(entries));
  Json objects = Json::Object();
  for (const auto& [hash, size] : object_sizes_) {
    objects.Set(hash, size);
  }
  manifest.Set("objects", std::move(objects));
  // Temp file + fsync + atomic rename: readers (and a crash at any point
  // in the protocol) only ever see a complete, durable manifest.
  const std::string path = directory_ + "/manifest.json";
  const std::string temp_path = path + ".tmp";
  PHOCUS_FAILPOINT("vault.tmp_write");
  WriteFile(temp_path, manifest.Dump(1));
  PHOCUS_FAILPOINT("vault.fsync");
  SyncFile(temp_path);
  PHOCUS_FAILPOINT("vault.rename");
  std::error_code error;
  fs::rename(temp_path, path, error);
  PHOCUS_CHECK(!error, "manifest rename failed: " + error.message());
  // The rename itself is only durable once the directory entry is synced;
  // without this a power loss can roll the swap back (the SIGKILL tests
  // cannot see that — the page cache survives a killed process).
  SyncDirectory(directory_);
  dirty_ = false;
}

void ArchiveVault::LoadManifest() {
  const std::string path = directory_ + "/manifest.json";
  if (!fs::exists(path)) return;  // fresh vault
  const Json manifest = Json::Parse(ReadFile(path));
  PHOCUS_CHECK(manifest.GetOr("format", Json("")).AsString() ==
                   "phocus-vault-manifest",
               "not a vault manifest: " + path);
  for (const auto& [key, record] : manifest.Get("entries").entries()) {
    entries_[key] = {record.Get("hash").AsString(),
                     static_cast<Cost>(record.Get("original_bytes").AsInt())};
  }
  for (const auto& [hash, size] : manifest.Get("objects").entries()) {
    object_sizes_[hash] = static_cast<Cost>(size.AsInt());
  }
}

}  // namespace phocus
