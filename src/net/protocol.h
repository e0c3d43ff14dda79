#ifndef WMP_NET_PROTOCOL_H_
#define WMP_NET_PROTOCOL_H_

/// \file protocol.h
/// Payload encodings of the wire protocol, one struct + Encode/Decode pair
/// per frame type (see net/frame.h for the framing).
///
/// All payloads are built from util/io's little-endian length-prefixed
/// primitives, and every Decode is bounds-checked — a malformed or
/// truncated payload yields a Status, never UB. The encodings are shared
/// verbatim by net::ReactorServer and the clients (and unit-tested
/// symmetrically), so the two sides cannot drift.
///
/// Request/response summary:
///
///   ScoreRequest    tenant + QueryRecord batch (workloads/wire_format.h)
///                   + per-workload member indices; one frame scores many
///                   workloads — the wire analogue of a BatchScorer call.
///   ScoreResponse   one {ok, prediction | error} per workload, in order.
///   PublishRequest  model name + serialized LearnedWmpModel artifact;
///                   the server installs it on EVERY shard (PublishAll)
///                   and records it in its ModelRegistry.
///   PublishResponse registry epoch now current + shard count swapped.
///   RollbackRequest model name; server re-publishes the previous epoch.
///   StatsResponse   engine::ServiceStats counters + server totals.
///   ErrorBody       status code + message (frame type kError).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.h"
#include "engine/scoring_service.h"
#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::net {

/// One ScoreWorkloads call on the wire: every workload's member queries
/// index into the request's own record batch.
struct ScoreRequest {
  std::string tenant;
  std::vector<workloads::QueryRecord> records;
  std::vector<core::WorkloadBatch> batches;  // only query_indices travel
};

/// Per-workload outcome; `predictions[i]` is valid iff `ok[i]`, else
/// `errors[i]` holds the failure text.
struct ScoreResponse {
  std::vector<uint8_t> ok;
  std::vector<double> predictions;
  std::vector<std::string> errors;
  size_t size() const { return ok.size(); }
};

struct PublishRequest {
  std::string model_name;
  std::string model_bytes;  ///< LearnedWmpModel::Serialize stream
  /// ArtifactChecksum(model_bytes). EncodePublishRequest computes it over
  /// the exact bytes it puts on the wire (this field is ignored on
  /// encode); DecodePublishRequest recomputes, fills this in, and rejects
  /// on mismatch — so a truncated or bit-flipped artifact dies at the
  /// protocol boundary, before deserialization, before PublishAll, and
  /// before any ModelRegistry epoch exists for it.
  uint64_t artifact_hash = 0;
};

struct PublishResponse {
  uint64_t registry_epoch = 0;
  uint64_t shards_swapped = 0;
};

struct RollbackRequest {
  std::string model_name;
};

struct RollbackResponse {
  uint64_t registry_epoch = 0;
  uint64_t shards_swapped = 0;
};

/// \name Fleet control plane payloads (see net/frame.h for the verbs).
///
/// A kStageRequest reuses the PublishRequest encoding verbatim (same
/// artifact, same checksum gate) — only the frame type changes the verb
/// from "install now" to "validate and park". A kCommitResponse reuses
/// the PublishResponse encoding (the commit IS the publish).
/// @{

/// Router liveness/epoch probe. The nonce is echoed back so a probe
/// response can never be confused with a stale one on a reused stream.
struct HealthRequest {
  uint64_t nonce = 0;
};

struct HealthResponse {
  uint64_t nonce = 0;           ///< echo of the request nonce
  uint64_t registry_epoch = 0;  ///< node's current epoch (0 = no model)
  uint64_t staged_ticket = 0;   ///< nonzero while an artifact is parked
  uint64_t queue_depth = 0;     ///< scoring backlog snapshot
};

/// Answer to a kStageRequest: the ticket a commit/abort must name, plus
/// the artifact hash the node verified (the router cross-checks it).
struct StageResponse {
  uint64_t ticket = 0;
  uint64_t artifact_hash = 0;
};

/// kCommitRequest / kAbortRequest body. An abort with ticket 0 discards
/// whatever is staged (the compensation path doesn't always know the
/// ticket — its stage call may have died before the response arrived).
struct TicketRequest {
  uint64_t ticket = 0;
};

struct AbortResponse {
  uint8_t had_staged = 0;  ///< 1 if an artifact was actually discarded
};

std::string EncodeHealthRequest(const HealthRequest& request);
Result<HealthRequest> DecodeHealthRequest(const std::string& payload);

std::string EncodeHealthResponse(const HealthResponse& response);
Result<HealthResponse> DecodeHealthResponse(const std::string& payload);

std::string EncodeStageResponse(const StageResponse& response);
Result<StageResponse> DecodeStageResponse(const std::string& payload);

std::string EncodeTicketRequest(const TicketRequest& request);
Result<TicketRequest> DecodeTicketRequest(const std::string& payload);

std::string EncodeAbortResponse(const AbortResponse& response);
Result<AbortResponse> DecodeAbortResponse(const std::string& payload);

/// @}

/// Server-side counters riding on a StatsResponse frame, alongside the
/// scoring service's own ServiceStats.
struct WireServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t frames_served = 0;
  /// Malformed/undecodable frames and rejected requests — peer
  /// misbehavior, distinct from local resource blips below.
  uint64_t protocol_errors = 0;
  /// Transient accept() failures (EMFILE under a connection burst,
  /// ECONNABORTED); the server backs off and keeps accepting.
  uint64_t accept_failures = 0;
};

struct StatsResponse {
  engine::ServiceStats service;
  WireServerCounters server;
};

struct ErrorBody {
  uint8_t code = 0;  ///< StatusCode of the failure
  std::string message;
};

/// Encodes from borrowed parts (QueryRecord is move-only, so callers —
/// the client above all — never hold an assembled ScoreRequest).
std::string EncodeScoreRequest(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches);
Result<ScoreRequest> DecodeScoreRequest(const std::string& payload);

std::string EncodeScoreResponse(const ScoreResponse& response);
Result<ScoreResponse> DecodeScoreResponse(const std::string& payload);

/// One Result per workload of a decoded response (a failed workload
/// carries its server-side error). Fails when the response does not hold
/// exactly `num_workloads` outcomes.
Result<std::vector<Result<double>>> ScoreOutcomes(
    const ScoreResponse& response, size_t num_workloads);

std::string EncodePublishRequest(const PublishRequest& request);
Result<PublishRequest> DecodePublishRequest(const std::string& payload);

std::string EncodePublishResponse(const PublishResponse& response);
Result<PublishResponse> DecodePublishResponse(const std::string& payload);

std::string EncodeRollbackRequest(const RollbackRequest& request);
Result<RollbackRequest> DecodeRollbackRequest(const std::string& payload);

std::string EncodeRollbackResponse(const RollbackResponse& response);
Result<RollbackResponse> DecodeRollbackResponse(const std::string& payload);

std::string EncodeStatsResponse(const StatsResponse& response);
Result<StatsResponse> DecodeStatsResponse(const std::string& payload);

std::string EncodeErrorBody(const ErrorBody& error);
/// Decoding an error body never fails: a garbled error payload degrades to
/// an Internal "unparseable error frame" description.
ErrorBody DecodeErrorBody(const std::string& payload);

/// Convenience: the Status a client should surface for a kError frame.
Status StatusFromError(const ErrorBody& error);

/// Integrity checksum of a serialized model artifact as it travels on a
/// publish frame (util::HashBytes under a fixed seed). Non-cryptographic:
/// the threat model is truncation and bit rot between trainer and fleet,
/// not an adversary forging artifacts. Both sides hash the same
/// little-endian byte stream, so the check is platform-stable wherever the
/// artifacts themselves are.
uint64_t ArtifactChecksum(std::string_view model_bytes);

/// \name Pipelined-frame payload framing.
///
/// A kScoreRequestPipelined / kScoreResponsePipelined / kErrorPipelined
/// payload is a u32 correlation id followed by the corresponding plain
/// payload encoding — compose these with the Encode/Decode pairs above.
/// @{
std::string EncodePipelinedPayload(uint32_t correlation_id,
                                   std::string_view body);
/// Splits off the correlation id; `*body` receives the inner payload.
Result<uint32_t> DecodePipelinedPayload(const std::string& payload,
                                        std::string* body);
/// @}

}  // namespace wmp::net

#endif  // WMP_NET_PROTOCOL_H_
