#include "net/protocol.h"

#include <cstring>
#include <utility>

#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"
#include "workloads/wire_format.h"

namespace wmp::net {

namespace {

void WriteIndexVec(BinaryWriter* w, const std::vector<uint32_t>& v) {
  w->WriteU64(v.size());
  for (uint32_t x : v) w->WriteU32(x);
}

Result<std::vector<uint32_t>> ReadIndexVec(BinaryReader* r) {
  WMP_ASSIGN_OR_RETURN(const uint64_t n, r->ReadU64());
  if (n > r->remaining() / sizeof(uint32_t)) {
    return Status::InvalidArgument("index vector longer than its payload");
  }
  std::vector<uint32_t> v(static_cast<size_t>(n));
  for (uint32_t& x : v) {
    WMP_ASSIGN_OR_RETURN(x, r->ReadU32());
  }
  return v;
}

}  // namespace

std::string EncodeScoreRequest(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  BinaryWriter w;
  w.WriteString(std::string(tenant));
  workloads::SerializeRecordsWire(records, &w);
  w.WriteU64(batches.size());
  for (const core::WorkloadBatch& b : batches) {
    WriteIndexVec(&w, b.query_indices);
  }
  return w.buffer();
}

Result<ScoreRequest> DecodeScoreRequest(const std::string& payload) {
  BinaryReader r(payload);
  ScoreRequest request;
  WMP_ASSIGN_OR_RETURN(request.tenant, r.ReadString());
  WMP_ASSIGN_OR_RETURN(request.records,
                       workloads::DeserializeRecordsWire(&r));
  WMP_ASSIGN_OR_RETURN(const uint64_t n_batches, r.ReadU64());
  if (n_batches > r.remaining() / sizeof(uint64_t) + 1) {
    return Status::InvalidArgument("batch count exceeds payload");
  }
  request.batches.resize(static_cast<size_t>(n_batches));
  for (core::WorkloadBatch& b : request.batches) {
    WMP_ASSIGN_OR_RETURN(b.query_indices, ReadIndexVec(&r));
    // Validate at the protocol trust boundary, mirroring
    // ScoringService::Submit: indices must lie inside the request's own
    // record batch (downstream featurizers index it unchecked).
    for (uint32_t qi : b.query_indices) {
      if (qi >= request.records.size()) {
        return Status::OutOfRange(
            StrFormat("workload query index %u outside the %zu-record "
                      "batch",
                      qi, request.records.size()));
      }
    }
  }
  return request;
}

std::string EncodeScoreResponse(const ScoreResponse& response) {
  BinaryWriter w;
  w.WriteU64(response.ok.size());
  for (size_t i = 0; i < response.ok.size(); ++i) {
    w.WriteU8(response.ok[i]);
    if (response.ok[i]) {
      w.WriteDouble(response.predictions[i]);
    } else {
      w.WriteString(response.errors[i]);
    }
  }
  return w.buffer();
}

Result<ScoreResponse> DecodeScoreResponse(const std::string& payload) {
  BinaryReader r(payload);
  WMP_ASSIGN_OR_RETURN(const uint64_t n, r.ReadU64());
  // Every entry costs at least u8 ok + double prediction (or u32 string
  // length) = 9 wire bytes; a count the payload cannot hold must be
  // rejected BEFORE the three vectors below are sized from it.
  if (n > r.remaining() / 9 + 1) {
    return Status::InvalidArgument("score count exceeds payload");
  }
  ScoreResponse response;
  response.ok.resize(static_cast<size_t>(n));
  response.predictions.assign(static_cast<size_t>(n), 0.0);
  response.errors.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < n; ++i) {
    WMP_ASSIGN_OR_RETURN(response.ok[i], r.ReadU8());
    if (response.ok[i]) {
      WMP_ASSIGN_OR_RETURN(response.predictions[i], r.ReadDouble());
    } else {
      WMP_ASSIGN_OR_RETURN(response.errors[i], r.ReadString());
    }
  }
  return response;
}

Result<std::vector<Result<double>>> ScoreOutcomes(
    const ScoreResponse& response, size_t num_workloads) {
  if (response.size() != num_workloads) {
    return Status::Internal(
        StrFormat("server answered %zu workloads for a %zu-workload request",
                  response.size(), num_workloads));
  }
  std::vector<Result<double>> outcomes;
  outcomes.reserve(response.size());
  for (size_t i = 0; i < response.size(); ++i) {
    if (response.ok[i]) {
      outcomes.emplace_back(response.predictions[i]);
    } else {
      outcomes.emplace_back(Status::Internal(response.errors[i]));
    }
  }
  return outcomes;
}

std::string EncodePublishRequest(const PublishRequest& request) {
  BinaryWriter w;
  w.WriteString(request.model_name);
  w.WriteString(request.model_bytes);
  // The encoder hashes the exact bytes it just wrote — callers cannot
  // forget the checksum, and any corruption between here and the
  // receiver's decode (the wire) is what the check exists to catch.
  w.WriteU64(ArtifactChecksum(request.model_bytes));
  return w.buffer();
}

Result<PublishRequest> DecodePublishRequest(const std::string& payload) {
  BinaryReader r(payload);
  PublishRequest request;
  WMP_ASSIGN_OR_RETURN(request.model_name, r.ReadString());
  WMP_ASSIGN_OR_RETURN(request.model_bytes, r.ReadString());
  WMP_ASSIGN_OR_RETURN(request.artifact_hash, r.ReadU64());
  // An empty name is valid at the protocol layer — the server substitutes
  // its default registry name (see RequestDispatcher::HandlePublish).
  if (request.model_bytes.empty()) {
    return Status::InvalidArgument("publish request carries no artifact");
  }
  // Integrity gate for rollouts: a publish whose artifact no longer hashes
  // to what the sender computed is rejected here, before the model is even
  // deserialized — so no shard swap and no registry epoch can come of it.
  const uint64_t computed = ArtifactChecksum(request.model_bytes);
  if (computed != request.artifact_hash) {
    return Status::InvalidArgument(StrFormat(
        "artifact checksum mismatch (wire %016llx, computed %016llx): "
        "model bytes were corrupted in transit",
        static_cast<unsigned long long>(request.artifact_hash),
        static_cast<unsigned long long>(computed)));
  }
  return request;
}

std::string EncodePublishResponse(const PublishResponse& response) {
  BinaryWriter w;
  w.WriteU64(response.registry_epoch);
  w.WriteU64(response.shards_swapped);
  return w.buffer();
}

Result<PublishResponse> DecodePublishResponse(const std::string& payload) {
  BinaryReader r(payload);
  PublishResponse response;
  WMP_ASSIGN_OR_RETURN(response.registry_epoch, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.shards_swapped, r.ReadU64());
  return response;
}

std::string EncodeRollbackRequest(const RollbackRequest& request) {
  BinaryWriter w;
  w.WriteString(request.model_name);
  return w.buffer();
}

Result<RollbackRequest> DecodeRollbackRequest(const std::string& payload) {
  BinaryReader r(payload);
  RollbackRequest request;
  WMP_ASSIGN_OR_RETURN(request.model_name, r.ReadString());
  if (request.model_name.empty()) {
    return Status::InvalidArgument("rollback request has an empty model name");
  }
  return request;
}

std::string EncodeHealthRequest(const HealthRequest& request) {
  BinaryWriter w;
  w.WriteU64(request.nonce);
  return w.buffer();
}

Result<HealthRequest> DecodeHealthRequest(const std::string& payload) {
  BinaryReader r(payload);
  HealthRequest request;
  WMP_ASSIGN_OR_RETURN(request.nonce, r.ReadU64());
  return request;
}

std::string EncodeHealthResponse(const HealthResponse& response) {
  BinaryWriter w;
  w.WriteU64(response.nonce);
  w.WriteU64(response.registry_epoch);
  w.WriteU64(response.staged_ticket);
  w.WriteU64(response.queue_depth);
  return w.buffer();
}

Result<HealthResponse> DecodeHealthResponse(const std::string& payload) {
  BinaryReader r(payload);
  HealthResponse response;
  WMP_ASSIGN_OR_RETURN(response.nonce, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.registry_epoch, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.staged_ticket, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.queue_depth, r.ReadU64());
  return response;
}

std::string EncodeStageResponse(const StageResponse& response) {
  BinaryWriter w;
  w.WriteU64(response.ticket);
  w.WriteU64(response.artifact_hash);
  return w.buffer();
}

Result<StageResponse> DecodeStageResponse(const std::string& payload) {
  BinaryReader r(payload);
  StageResponse response;
  WMP_ASSIGN_OR_RETURN(response.ticket, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.artifact_hash, r.ReadU64());
  if (response.ticket == 0) {
    return Status::InvalidArgument("stage response carries ticket 0");
  }
  return response;
}

std::string EncodeTicketRequest(const TicketRequest& request) {
  BinaryWriter w;
  w.WriteU64(request.ticket);
  return w.buffer();
}

Result<TicketRequest> DecodeTicketRequest(const std::string& payload) {
  BinaryReader r(payload);
  TicketRequest request;
  WMP_ASSIGN_OR_RETURN(request.ticket, r.ReadU64());
  return request;
}

std::string EncodeAbortResponse(const AbortResponse& response) {
  BinaryWriter w;
  w.WriteU8(response.had_staged);
  return w.buffer();
}

Result<AbortResponse> DecodeAbortResponse(const std::string& payload) {
  BinaryReader r(payload);
  AbortResponse response;
  WMP_ASSIGN_OR_RETURN(response.had_staged, r.ReadU8());
  return response;
}

std::string EncodeRollbackResponse(const RollbackResponse& response) {
  BinaryWriter w;
  w.WriteU64(response.registry_epoch);
  w.WriteU64(response.shards_swapped);
  return w.buffer();
}

Result<RollbackResponse> DecodeRollbackResponse(const std::string& payload) {
  BinaryReader r(payload);
  RollbackResponse response;
  WMP_ASSIGN_OR_RETURN(response.registry_epoch, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.shards_swapped, r.ReadU64());
  return response;
}

namespace {

// ServiceStats travels as a counted list of u64 fields so a newer server
// can append counters without breaking an older client (extras ignored;
// missing fields stay zero).
constexpr uint64_t kServiceStatsFields = 23;

void AppendServiceStats(BinaryWriter* w, const engine::ServiceStats& s) {
  w->WriteU64(kServiceStatsFields);
  w->WriteU64(s.submitted);
  w->WriteU64(s.completed);
  w->WriteU64(s.failed);
  w->WriteU64(s.flushes);
  w->WriteU64(s.flushes_full);
  w->WriteU64(s.flushes_adaptive);
  w->WriteU64(s.flushes_deadline);
  w->WriteU64(s.flushes_drain);
  w->WriteU64(s.cache_hits);
  w->WriteU64(s.cache_misses);
  w->WriteU64(s.template_cache_hits);
  w->WriteU64(s.template_cache_misses);
  w->WriteU64(s.models_published);
  w->WriteU64(s.template_entries_warmed);
  w->WriteU64(s.max_queue_depth);
  w->WriteU64(s.queue_depth);
  w->WriteU64(s.total_latency_us);
  w->WriteU64(s.max_latency_us);
  w->WriteU64(s.traverse_kernel_id);
  w->WriteU64(s.assign_rows);
  w->WriteU64(s.assign_bound_skips);
  w->WriteU64(s.assign_early_exits);
  w->WriteU64(s.assign_full_distances);
}

Result<engine::ServiceStats> ReadServiceStats(BinaryReader* r) {
  WMP_ASSIGN_OR_RETURN(const uint64_t n_fields, r->ReadU64());
  if (n_fields > r->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("stats field count exceeds payload");
  }
  std::vector<uint64_t> f(static_cast<size_t>(n_fields), 0);
  for (uint64_t& x : f) {
    WMP_ASSIGN_OR_RETURN(x, r->ReadU64());
  }
  const auto at = [&f](size_t i) -> uint64_t {
    return i < f.size() ? f[i] : 0;
  };
  engine::ServiceStats s;
  s.submitted = at(0);
  s.completed = at(1);
  s.failed = at(2);
  s.flushes = at(3);
  s.flushes_full = at(4);
  s.flushes_adaptive = at(5);
  s.flushes_deadline = at(6);
  s.flushes_drain = at(7);
  s.cache_hits = at(8);
  s.cache_misses = at(9);
  s.template_cache_hits = at(10);
  s.template_cache_misses = at(11);
  s.models_published = at(12);
  s.template_entries_warmed = at(13);
  s.max_queue_depth = at(14);
  s.queue_depth = at(15);
  s.total_latency_us = at(16);
  s.max_latency_us = at(17);
  s.traverse_kernel_id = at(18);
  s.assign_rows = at(19);
  s.assign_bound_skips = at(20);
  s.assign_early_exits = at(21);
  s.assign_full_distances = at(22);
  return s;
}

}  // namespace

std::string EncodeStatsResponse(const StatsResponse& response) {
  BinaryWriter w;
  AppendServiceStats(&w, response.service);
  w.WriteU64(response.server.connections_accepted);
  w.WriteU64(response.server.frames_served);
  w.WriteU64(response.server.protocol_errors);
  w.WriteU64(response.server.accept_failures);
  return w.buffer();
}

Result<StatsResponse> DecodeStatsResponse(const std::string& payload) {
  BinaryReader r(payload);
  StatsResponse response;
  WMP_ASSIGN_OR_RETURN(response.service, ReadServiceStats(&r));
  WMP_ASSIGN_OR_RETURN(response.server.connections_accepted, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.server.frames_served, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.server.protocol_errors, r.ReadU64());
  WMP_ASSIGN_OR_RETURN(response.server.accept_failures, r.ReadU64());
  return response;
}

std::string EncodeErrorBody(const ErrorBody& error) {
  BinaryWriter w;
  w.WriteU8(error.code);
  w.WriteString(error.message);
  return w.buffer();
}

ErrorBody DecodeErrorBody(const std::string& payload) {
  BinaryReader r(payload);
  ErrorBody error;
  auto code = r.ReadU8();
  auto message = code.ok() ? r.ReadString()
                           : Result<std::string>(code.status());
  if (code.ok() && message.ok()) {
    error.code = *code;
    error.message = *message;
  } else {
    error.code = static_cast<uint8_t>(StatusCode::kInternal);
    error.message = "unparseable error frame from peer";
  }
  return error;
}

uint64_t ArtifactChecksum(std::string_view model_bytes) {
  return util::HashBytes(model_bytes.data(), model_bytes.size(),
                         0x574D505055424C48ull);  // "WMPPUBLH"
}

std::string EncodePipelinedPayload(uint32_t correlation_id,
                                   std::string_view body) {
  std::string out;
  out.reserve(sizeof(correlation_id) + body.size());
  out.append(reinterpret_cast<const char*>(&correlation_id),
             sizeof(correlation_id));
  out.append(body.data(), body.size());
  return out;
}

Result<uint32_t> DecodePipelinedPayload(const std::string& payload,
                                        std::string* body) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "pipelined payload too short for a correlation id");
  }
  uint32_t correlation_id = 0;
  std::memcpy(&correlation_id, payload.data(), sizeof(correlation_id));
  body->assign(payload, sizeof(correlation_id),
               payload.size() - sizeof(correlation_id));
  return correlation_id;
}

Status StatusFromError(const ErrorBody& error) {
  StatusCode code = static_cast<StatusCode>(error.code);
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kIOError:
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
    case StatusCode::kDeadlineExceeded:
      break;
    default:
      code = StatusCode::kInternal;
  }
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, "server: " + error.message);
}

}  // namespace wmp::net
