#include "net/wire_client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "net/backoff.h"
#include "util/hash.h"
#include "util/io.h"

namespace wmp::net {

namespace {

Status StatusOf(const Status& status) { return status; }
template <typename T>
Status StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace

WireClient::WireClient(std::string address, WireClientOptions options)
    : address_(std::move(address)),
      options_(options),
      backoff_state_(options.jitter_seed ^
                     util::HashBytes(address_.data(), address_.size(),
                                     0x574D504A49545452ull)) {}  // "WMPJITTR"

WireClient::~WireClient() { Close(); }

Status WireClient::Connect() {
  if (connected()) return Status::OK();
  client_.reset();
  AsyncWireClientOptions options;
  options.max_payload_bytes = options_.max_payload_bytes;
  options.connect_timeout_ms = options_.connect_timeout_ms;
  options.request_timeout_ms = options_.request_timeout_ms;
  WMP_ASSIGN_OR_RETURN(client_, AsyncWireClient::Connect(address_, options));
  return Status::OK();
}

void WireClient::Close() { client_.reset(); }

template <typename Call>
auto WireClient::Retry(bool idempotent, Call&& call)
    -> decltype(call(static_cast<AsyncWireClient*>(nullptr))) {
  // Retries pace themselves with bounded exponential backoff + full
  // jitter, so a fleet of clients retrying against a recovering server
  // doesn't arrive in synchronized waves.
  const int attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  Status last_error = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const uint32_t delay_ms =
          BackoffDelayMs(&backoff_state_, attempt - 1,
                         options_.backoff_base_ms, options_.backoff_cap_ms);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    if (Status st = Connect(); !st.ok()) {
      last_error = st;
      continue;
    }
    const uint64_t sent_before = client_->requests_sent();
    auto outcome = call(client_.get());
    last_error = StatusOf(outcome);
    if (last_error.ok()) return outcome;
    if (client_->alive() && !last_error.IsDeadlineExceeded()) return outcome;
    // Transport failure: the stream position is unknowable, so drop it.
    // An unwritten request never reached the server and may always be
    // resent; after a lost RESPONSE only an idempotent one may, because
    // the server may have executed it and died writing back.
    const bool reached_server = client_->requests_sent() != sent_before;
    Close();
    if (reached_server && !idempotent) return outcome;
  }
  return last_error;
}

Status WireClient::Ping() {
  return Retry(true, [](AsyncWireClient* client) { return CallPing(client); });
}

Result<std::vector<Result<double>>> WireClient::ScoreWorkloads(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  return Retry(true, [&](AsyncWireClient* client)
                         -> Result<std::vector<Result<double>>> {
    WMP_ASSIGN_OR_RETURN(std::future<Result<ScoreResponse>> answer,
                         client->SubmitScore(tenant, records, batches));
    WMP_ASSIGN_OR_RETURN(ScoreResponse response, answer.get());
    return ScoreOutcomes(response, batches.size());
  });
}

Result<uint64_t> WireClient::Publish(std::string_view name,
                                     const core::LearnedWmpModel& model) {
  BinaryWriter artifact;
  WMP_RETURN_IF_ERROR(model.Serialize(&artifact));
  return Retry(false, [&](AsyncWireClient* client) {
    return CallPublish(client, name, artifact.buffer());
  });
}

Result<uint64_t> WireClient::Rollback(std::string_view name) {
  return Retry(false, [&](AsyncWireClient* client) {
    return CallRollback(client, name);
  });
}

Result<StatsResponse> WireClient::Stats() {
  return Retry(true,
               [](AsyncWireClient* client) { return CallStats(client); });
}

Result<HealthResponse> WireClient::Health(uint64_t nonce) {
  return Retry(true, [nonce](AsyncWireClient* client) {
    return CallHealth(client, nonce);
  });
}

Result<StageResponse> WireClient::Stage(std::string_view name,
                                        const std::string& model_bytes) {
  return Retry(true, [&](AsyncWireClient* client) {
    return CallStage(client, name, model_bytes);
  });
}

Result<PublishResponse> WireClient::Commit(uint64_t ticket) {
  return Retry(false, [ticket](AsyncWireClient* client) {
    return CallCommit(client, ticket);
  });
}

Result<AbortResponse> WireClient::Abort(uint64_t ticket) {
  return Retry(true, [ticket](AsyncWireClient* client) {
    return CallAbort(client, ticket);
  });
}

}  // namespace wmp::net
