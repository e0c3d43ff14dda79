#ifndef WMP_NET_WIRE_CLIENT_H_
#define WMP_NET_WIRE_CLIENT_H_

/// \file wire_client.h
/// Synchronous client of the wire protocol: what a DBMS admission
/// controller (or wmpctl / the benches) embeds to consult a remote
/// ScoringService with one blocking call per request. It is a facade over
/// net::AsyncWireClient, the one client core: each call submits one frame
/// on that connection and waits for its future.
///
///  * **Connection reuse.** The connection opens lazily and reopens after
///    a transport failure, so a restarted server looks like a slow call.
///  * **Batched score requests.** `ScoreWorkloads` mirrors
///    engine::BatchScorer::ScoreWorkloads: one pipelined frame carries the
///    record batch plus every workload's member indices, one frame returns
///    every outcome — the request count is per *call*, not per workload.
///  * **Rollouts.** `Publish` ships a locally-trained artifact and returns
///    the registry epoch now serving; `Rollback` restores the previous one.
///  * **Retries.** A request whose frame was never written did not reach
///    the server and is always resent (up to `max_attempts`). After a lost
///    RESPONSE only idempotent verbs resend (score, ping, stats, health,
///    stage, abort); publish, commit and rollback surface the error,
///    because the server may have applied them.
///
/// Thread-safety: a WireClient is NOT thread-safe; give each client thread
/// its own instance (they multiplex fine on the server side).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"
#include "net/async_client.h"
#include "net/protocol.h"
#include "workloads/query_record.h"

namespace wmp::net {

struct WireClientOptions {
  /// Receiver-side frame bound (see FrameLimits).
  size_t max_payload_bytes = 64ull << 20;
  /// Deadlines (0 = unbounded): connect(2) itself (see ConnectTo), and
  /// each request's answer and frame write, so a stalled server surfaces
  /// as kDeadlineExceeded, which also closes the connection.
  int connect_timeout_ms = 0;
  int request_timeout_ms = 0;
  /// Total tries per call, >= 1. The default keeps the original "one
  /// transparent resend" behavior; a caller talking to a flapping node
  /// raises it. Retries beyond the first pace themselves with bounded
  /// exponential backoff + full jitter (net/backoff.h). Regardless of
  /// attempts left, a non-idempotent request NEVER resends after its
  /// response was lost (see the file comment).
  int max_attempts = 2;
  uint32_t backoff_base_ms = 10;
  uint32_t backoff_cap_ms = 1000;
  /// Jitter RNG seed; mixed with the address hash so identical clients
  /// still de-synchronize. Fixed seed -> reproducible delay sequence.
  uint64_t jitter_seed = 0;
};

/// \brief One reusable client connection to a net::ReactorServer.
class WireClient {
 public:
  explicit WireClient(std::string address, WireClientOptions options = {});
  ~WireClient();
  WireClient(WireClient&&) = delete;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Establishes the connection now (otherwise the first call does).
  Status Connect();
  /// Drops the connection; the next call reconnects.
  void Close();
  bool connected() const { return client_ != nullptr && client_->alive(); }
  const std::string& address() const { return address_; }

  /// Round-trips a ping (connectivity / liveness probe).
  Status Ping();

  /// Scores every workload remotely in one request; returns one
  /// Result<double> per batch, in order. The call-level Result is the
  /// transport/protocol outcome; per-workload failures (e.g. an empty
  /// workload under a fixed-length model) come back inside the vector.
  Result<std::vector<Result<double>>> ScoreWorkloads(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);

  /// Serializes `model` and publishes it across every server shard under
  /// `name` (server default when empty). Returns the registry epoch now
  /// serving.
  Result<uint64_t> Publish(std::string_view name,
                           const core::LearnedWmpModel& model);

  /// Rolls `name` back to the previous registry epoch; returns it.
  Result<uint64_t> Rollback(std::string_view name);

  /// Service + server counters snapshot.
  Result<StatsResponse> Stats();

  /// \name Fleet control plane (the verbs net::FleetRouter drives).
  /// @{
  /// Liveness/epoch probe; the response echoes `nonce`.
  Result<HealthResponse> Health(uint64_t nonce);
  /// Stages pre-serialized artifact bytes (phase one of a two-phase
  /// publish) without installing them. Idempotent: re-staging the same
  /// bytes just replaces the parked copy under a fresh ticket, so a lost
  /// stage response is safe to retry.
  Result<StageResponse> Stage(std::string_view name,
                              const std::string& model_bytes);
  /// Installs the staged artifact (phase two). NOT idempotent — same
  /// never-resend rule as Publish.
  Result<PublishResponse> Commit(uint64_t ticket);
  /// Discards a staged artifact (0 = whatever is parked). Idempotent.
  Result<AbortResponse> Abort(uint64_t ticket);
  /// @}

 private:
  /// Runs `call` on the connection (connecting first), retrying with
  /// backoff under the resend rule in the file comment. A rejection on a
  /// live stream (a kError answer) is final; a transport failure or a
  /// deadline drops the connection.
  template <typename Call>
  auto Retry(bool idempotent, Call&& call)
      -> decltype(call(static_cast<AsyncWireClient*>(nullptr)));

  std::string address_;
  WireClientOptions options_;
  std::unique_ptr<AsyncWireClient> client_;
  uint64_t backoff_state_ = 0;  ///< jitter RNG; seeded in the constructor
};

}  // namespace wmp::net

#endif  // WMP_NET_WIRE_CLIENT_H_
