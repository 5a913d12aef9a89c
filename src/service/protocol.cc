#include "service/protocol.h"

#include <cstring>

#include "util/fnv.h"
#include "util/strings.h"

namespace phocus {
namespace service {

std::string EncodeFrame(std::string_view payload) {
  PHOCUS_CHECK(payload.size() <= 0xffffffffull, "frame payload above 4GiB");
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(payload);
  return frame;
}

std::string EncodeFrame(const Json& message) {
  const std::string payload = message.Dump();
  return EncodeFrame(std::string_view(payload));
}

FrameDecoder::Status FrameDecoder::Next(std::string* frame) {
  if (buffer_.size() < kFrameHeaderBytes) return Status::kNeedMore;
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
  const std::uint32_t length = (static_cast<std::uint32_t>(bytes[0]) << 24) |
                               (static_cast<std::uint32_t>(bytes[1]) << 16) |
                               (static_cast<std::uint32_t>(bytes[2]) << 8) |
                               static_cast<std::uint32_t>(bytes[3]);
  if (length > max_frame_bytes_) return Status::kTooLarge;
  if (buffer_.size() < kFrameHeaderBytes + length) return Status::kNeedMore;
  frame->assign(buffer_, kFrameHeaderBytes, length);
  buffer_.erase(0, kFrameHeaderBytes + length);
  return Status::kFrame;
}

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownEndpoint: return "unknown_endpoint";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kInfeasible: return "infeasible";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kIngestOverloaded: return "ingest_overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kFrameTooLarge: return "frame_too_large";
    case ErrorCode::kShardUnavailable: return "shard_unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ErrorCode ErrorCodeFromName(std::string_view name) {
  static constexpr ErrorCode kAll[] = {
      ErrorCode::kBadRequest,      ErrorCode::kUnknownEndpoint,
      ErrorCode::kUnknownSession,  ErrorCode::kInfeasible,
      ErrorCode::kOverloaded,      ErrorCode::kIngestOverloaded,
      ErrorCode::kDeadlineExceeded,
      ErrorCode::kShuttingDown,    ErrorCode::kFrameTooLarge,
      ErrorCode::kShardUnavailable, ErrorCode::kInternal};
  for (ErrorCode code : kAll) {
    if (ErrorCodeName(code) == name) return code;
  }
  return ErrorCode::kInternal;
}

bool IsIdempotentEndpoint(std::string_view endpoint) {
  // Reads, plus `plan` (deterministic and served from the plan cache).
  // Everything else mutates: create_session allocates an id per call;
  // ingest/ingest_flush move the post-absorb id space; update/set_budget/
  // add_photos/set_policy change archiver state; shutdown drains the server.
  static constexpr std::string_view kIdempotent[] = {
      "ping",        "healthz", "metrics",      "stats",
      "dump_flight", "shards",  "session_info", "plan",
      "coverage",    "explain",
  };
  for (std::string_view name : kIdempotent) {
    if (name == endpoint) return true;
  }
  return false;
}

Json MakeRequest(std::uint64_t id, const std::string& endpoint, Json params) {
  Json request = Json::Object();
  request.Set("id", id);
  request.Set("endpoint", endpoint);
  request.Set("params", std::move(params));
  return request;
}

Json MakeOkResponse(std::uint64_t id, Json result) {
  Json response = Json::Object();
  response.Set("id", id);
  response.Set("ok", true);
  response.Set("result", std::move(result));
  return response;
}

Json MakeErrorResponse(std::uint64_t id, ErrorCode code,
                       const std::string& message) {
  Json error = Json::Object();
  error.Set("code", std::string(ErrorCodeName(code)));
  error.Set("message", message);
  Json response = Json::Object();
  response.Set("id", id);
  response.Set("ok", false);
  response.Set("error", std::move(error));
  return response;
}

Json PlanToJson(const ArchivePlan& plan) {
  Json out = Json::Object();
  Json solver = Json::Object();
  solver.Set("name", plan.solver_result.solver_name);
  solver.Set("exact", plan.solver_result.exact);
  solver.Set("detail", plan.solver_result.detail);
  out.Set("solver", std::move(solver));
  Json retained = Json::Array();
  for (PhotoId p : plan.retained) retained.Append(Json(p));
  out.Set("retained", std::move(retained));
  Json archived = Json::Array();
  for (PhotoId p : plan.archived) archived.Append(Json(p));
  out.Set("archived", std::move(archived));
  out.Set("retained_bytes", plan.retained_bytes);
  out.Set("archived_bytes", plan.archived_bytes);
  out.Set("score", plan.score);
  out.Set("max_score", plan.max_score);
  out.Set("score_fraction", plan.score_fraction);
  Json bound = Json::Object();
  bound.Set("solution_score", plan.online_bound.solution_score);
  bound.Set("upper_bound", plan.online_bound.upper_bound);
  bound.Set("certified_ratio", plan.online_bound.certified_ratio);
  out.Set("online_bound", std::move(bound));
  Json coverage = Json::Array();
  for (const SubsetCoverage& row : plan.subset_coverage) {
    Json entry = Json::Object();
    entry.Set("subset", row.name);
    entry.Set("weight", row.weight);
    entry.Set("coverage", row.coverage);
    entry.Set("retained_members", row.retained_members);
    entry.Set("total_members", row.total_members);
    coverage.Append(std::move(entry));
  }
  out.Set("coverage", std::move(coverage));
  return out;
}

std::string CanonicalOptionsKey(const ArchiveOptions& options) {
  const RepresentationOptions& repr = options.representation;
  return StrFormat(
      "budget=%llu;ctx=%d;exif=%.17g;tau=%.17g;bound=%d;rows=%zu",
      static_cast<unsigned long long>(options.budget),
      repr.context_normalize ? 1 : 0, repr.exif_weight, repr.sparsify_tau,
      options.compute_online_bound ? 1 : 0, options.coverage_rows);
}

std::uint64_t Fnv64(std::string_view bytes) {
  return Fnv1a64(bytes, kFnv64Basis);
}

}  // namespace service
}  // namespace phocus
