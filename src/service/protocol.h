#ifndef PHOCUS_SERVICE_PROTOCOL_H_
#define PHOCUS_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "phocus/system.h"
#include "util/json.h"
#include "util/logging.h"

/// \file protocol.h
/// The phocusd wire protocol: length-prefixed JSON frames over a byte
/// stream, plus the typed error vocabulary shared by server and client.
///
/// A frame is a 4-byte big-endian payload length followed by that many
/// bytes of UTF-8 JSON. Requests look like
///
///   {"id": 7, "endpoint": "plan", "params": {"session": "s-1", ...}}
///
/// and every request gets exactly one response, either
///
///   {"id": 7, "ok": true, "result": {...}}
///   {"id": 7, "ok": false, "error": {"code": "overloaded", "message": "..."}}
///
/// The full endpoint table and error-code semantics live in
/// docs/SERVICE.md.

namespace phocus {
namespace service {

/// Default cap on a single frame's payload. Oversized frames are a protocol
/// violation: the peer answers `frame_too_large` (when it can still attribute
/// the frame to a request) and closes the connection.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Wraps a payload in a length-prefixed frame.
std::string EncodeFrame(std::string_view payload);
std::string EncodeFrame(const Json& message);

/// Incremental frame extractor over a received byte stream. Feed bytes with
/// Append, then drain complete frames with Next. Tolerates frames arriving
/// split across arbitrarily many reads (and several frames per read).
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     ///< `*frame` was filled with one complete payload
    kNeedMore,  ///< the buffered bytes do not yet hold a complete frame
    kTooLarge,  ///< the declared length exceeds the cap; close the stream
  };

  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete frame payload, if any.
  Status Next(std::string* frame);

  std::size_t buffered_bytes() const { return buffer_.size(); }
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

/// Typed protocol errors. Names (the wire form) are stable API.
enum class ErrorCode {
  kBadRequest,       ///< malformed JSON / missing or mistyped fields
  kUnknownEndpoint,  ///< endpoint name not in the table
  kUnknownSession,   ///< session id not found (expired or never created)
  kInfeasible,       ///< constraints unsatisfiable (budget below C(S0))
  kOverloaded,       ///< admission control rejected: request queue full
  kIngestOverloaded, ///< streaming ingest queue full; flush or retry later
  kDeadlineExceeded, ///< request expired before a worker could start it
  kShuttingDown,     ///< server is draining; no new work accepted
  kFrameTooLarge,    ///< peer sent a frame above the size cap
  kShardUnavailable, ///< coordinator: the owning shard is down or unreachable
  kInternal,         ///< unexpected server-side failure
};

std::string_view ErrorCodeName(ErrorCode code);
/// Inverse of ErrorCodeName; unknown names map to kInternal.
ErrorCode ErrorCodeFromName(std::string_view name);

/// True for endpoints that are safe to blind-resend after an *ambiguous*
/// transport failure — the request may or may not have executed, so only
/// verbs whose re-execution is indistinguishable from one execution qualify
/// (pure reads, plus `plan`, which is cached and deterministic). Mutating
/// verbs are excluded on purpose: resending an `ingest` whose response was
/// lost would double-enqueue the batch and corrupt the post-absorb id space;
/// `update`/`set_budget` would double-apply. This single whitelist is the
/// retry-safety authority for both ServiceClient::CallIdempotent and the
/// coordinator's ShardPool — callers must not keep private lists.
bool IsIdempotentEndpoint(std::string_view endpoint);

/// Error responses decoded by the client surface as this exception.
class ServiceError : public CheckFailure {
 public:
  ServiceError(ErrorCode code, const std::string& message)
      : CheckFailure(std::string(ErrorCodeName(code)) + ": " + message),
        code_(code),
        message_(message) {}
  ErrorCode code() const { return code_; }
  /// The message without the code prefix that what() carries — use this
  /// when re-wrapping into an error response, or the prefix doubles.
  const std::string& message() const { return message_; }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Message builders.
Json MakeRequest(std::uint64_t id, const std::string& endpoint, Json params);
Json MakeOkResponse(std::uint64_t id, Json result);
Json MakeErrorResponse(std::uint64_t id, ErrorCode code,
                       const std::string& message);

/// Deterministic plan serialization: everything a client needs to act on the
/// plan, with wall-clock fields (build/solve seconds, trace) excluded so two
/// identical solves serialize byte-identically. Used by the `plan`/`update`
/// endpoints and by tests comparing server plans against in-process solves.
Json PlanToJson(const ArchivePlan& plan);

/// Canonical text form of ArchiveOptions — the options half of the plan-cache
/// key. Two option structs with equal effective values map to equal keys.
std::string CanonicalOptionsKey(const ArchiveOptions& options);

/// FNV-1a 64 with the standard basis (util/fnv.h) over arbitrary bytes:
/// corpus fingerprints, plan-cache key hashes, the hash ring.
std::uint64_t Fnv64(std::string_view bytes);

}  // namespace service
}  // namespace phocus

#endif  // PHOCUS_SERVICE_PROTOCOL_H_
