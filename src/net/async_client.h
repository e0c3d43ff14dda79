#ifndef WMP_NET_ASYNC_CLIENT_H_
#define WMP_NET_ASYNC_CLIENT_H_

/// \file async_client.h
/// The one client core of the wire protocol: one connection to a
/// net::ReactorServer, one reader thread, two request lanes.
///
///  * **Pipelined scores.** SubmitScore sends kScoreRequestPipelined
///    frames tagged with a correlation id; the server answers in
///    COMPLETION order. With N requests in flight, N round trips overlap
///    (bench/wire_latency.cc measures it).
///  * **Plain calls.** SubmitPlain sends any other request (ping, stats,
///    publish, rollback, health, stage, commit, abort). The reactor runs
///    these inline, in arrival order, so every response that is not a
///    pipelined frame answers the OLDEST outstanding plain call.
///
/// net::WireClient is a synchronous facade over this class and
/// net::FleetRouter keeps one per node; both call the typed verbs below.
///
/// Failures: a kErrorPipelined frame fails the one score it names; a
/// kError fails the oldest plain call and the stream stays up (with no
/// plain call outstanding it indicts the stream). EOF, an undecodable or
/// unexpected frame, or a failed write is a STREAM failure: every
/// outstanding future fails and the connection is dead — no transparent
/// reconnect, since in-flight requests may or may not have executed.
///
/// Deadlines (`request_timeout_ms`): an unanswered score fails ITS OWN
/// future with kDeadlineExceeded and the stream stays up (a late answer
/// for the expired id is dropped quietly). An unanswered plain call fails
/// the whole stream: its answer carries no id, so a late one would be
/// matched to the wrong call. The same value arms SO_SNDTIMEO, so a write
/// the peer stops draining kills the stream instead of blocking forever.
///
/// Thread-safety: SubmitScore and SubmitPlain may be called from multiple
/// threads; the futures are independent. Close (or destruction) fails
/// whatever is still outstanding.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/workload.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::net {

struct AsyncWireClientOptions {
  /// Receiver-side frame bound (see FrameLimits).
  size_t max_payload_bytes = 64ull << 20;
  /// SubmitScore blocks while this many scores are unanswered. Deep
  /// enough to hide wire latency, shallow enough that one client cannot
  /// monopolize the server's flush windows.
  size_t max_inflight = 32;
  /// Bounds connect(2) at Connect time (0 = OS default; see ConnectTo).
  int connect_timeout_ms = 0;
  /// Per-request and per-write deadline (0 = never); see the file comment.
  int request_timeout_ms = 0;
};

/// \brief Pipelined scoring and plain calls over one connection.
class AsyncWireClient {
 public:
  /// Connects eagerly.
  static Result<std::unique_ptr<AsyncWireClient>> Connect(
      const std::string& address, AsyncWireClientOptions options = {});
  ~AsyncWireClient();
  AsyncWireClient(const AsyncWireClient&) = delete;
  AsyncWireClient& operator=(const AsyncWireClient&) = delete;

  /// Sends one pipelined score request and returns a future for its
  /// response. Blocks only for window flow control (and the write itself);
  /// the future resolves whenever the server finishes — possibly before
  /// earlier submissions. Fails fast if the stream is already dead.
  Result<std::future<Result<ScoreResponse>>> SubmitScore(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);

  /// Sends one plain request frame and returns a future for its response,
  /// which must be of type `expected` (or a kError, whose Status the
  /// future then carries). An error here means the frame was not written.
  Result<std::future<Result<Frame>>> SubmitPlain(FrameType request,
                                                 std::string_view payload,
                                                 FrameType expected);

  /// True until a stream-level failure (or Close) kills the connection.
  bool alive() const;

  /// Request frames written in full so far (both lanes). A caller that
  /// owns the connection compares it across a failed call to tell "never
  /// reached the server" from "the answer was lost".
  uint64_t requests_sent() const {
    return requests_sent_.load(std::memory_order_relaxed);
  }

  /// Fails every outstanding future with a "client closed" status, closes
  /// the socket, joins the reader. Idempotent; also run by the destructor.
  /// Safe against concurrent submits, not against a concurrent Close.
  void Close();

 private:
  AsyncWireClient(int fd, AsyncWireClientOptions options);
  void ReaderLoop();
  /// Expires overdue requests (runs only with a deadline set).
  void TimerLoop();
  /// Fails every pending future with `status`, marks the stream dead and
  /// shuts the socket down.
  void FailAll(const Status& status);
  /// Writes one frame (caller holds write_mutex_); a failure kills the
  /// stream.
  Status WriteLocked(FrameType type, std::string_view payload);
  std::chrono::steady_clock::time_point NextDeadline() const;

  /// One in-flight score: its caller's promise plus its deadline
  /// (time_point::max() when deadlines are off).
  struct Pending {
    std::promise<Result<ScoreResponse>> promise;
    std::chrono::steady_clock::time_point deadline;
  };
  /// One outstanding plain call, answered in FIFO order.
  struct PlainCall {
    std::promise<Result<Frame>> promise;
    FrameType expected = FrameType::kPong;
    std::chrono::steady_clock::time_point deadline;
  };

  AsyncWireClientOptions options_;
  int fd_ = -1;
  std::thread reader_;
  std::thread timer_;

  mutable std::mutex mutex_;           // pendings_, plain_calls_, dead_
  std::condition_variable window_cv_;  // signaled as responses drain
  std::condition_variable timer_cv_;   // signaled on new deadline / death
  std::unordered_map<uint32_t, Pending> pendings_;
  std::deque<PlainCall> plain_calls_;
  /// Correlation ids whose futures already expired; the late response (if
  /// it ever comes) is discarded instead of indicting the stream.
  std::unordered_set<uint32_t> expired_;
  uint32_t next_correlation_ = 1;
  bool dead_ = false;
  Status death_status_;
  std::atomic<uint64_t> requests_sent_{0};

  /// Frame writes are atomic on the wire, and a plain call joins the FIFO
  /// under this lock too, so queue order is wire order.
  std::mutex write_mutex_;
};

/// \name Typed plain verbs over one AsyncWireClient.
///
/// Each sends one request, waits for its answer and decodes it. They make
/// one attempt; retry policy belongs to the caller (WireClient's
/// backoff loop, FleetRouter's state machine).
/// @{
/// Round-trips a ping (connectivity / liveness probe).
Status CallPing(AsyncWireClient* client);
/// Service + server counters snapshot.
Result<StatsResponse> CallStats(AsyncWireClient* client);
/// Publishes serialized artifact bytes under `name`; returns the epoch.
/// NOT idempotent.
Result<uint64_t> CallPublish(AsyncWireClient* client, std::string_view name,
                             std::string model_bytes);
/// Rolls `name` back one registry epoch; returns it. NOT idempotent.
Result<uint64_t> CallRollback(AsyncWireClient* client,
                              std::string_view name);
/// Liveness/epoch probe; a response that does not echo `nonce` closes the
/// client (the stream desynchronized).
Result<HealthResponse> CallHealth(AsyncWireClient* client, uint64_t nonce);
/// Stages artifact bytes without installing them and checks the node
/// staged exactly those bytes. Idempotent.
Result<StageResponse> CallStage(AsyncWireClient* client,
                                std::string_view name,
                                const std::string& model_bytes);
/// Installs the staged artifact. NOT idempotent.
Result<PublishResponse> CallCommit(AsyncWireClient* client, uint64_t ticket);
/// Discards a staged artifact (0 = whatever is parked). Idempotent.
Result<AbortResponse> CallAbort(AsyncWireClient* client, uint64_t ticket);
/// @}

}  // namespace wmp::net

#endif  // WMP_NET_ASYNC_CLIENT_H_
