#include "net/async_client.h"

#include <sys/socket.h>

#include <utility>

#include "net/socket.h"
#include "util/strings.h"

namespace wmp::net {

Result<std::unique_ptr<AsyncWireClient>> AsyncWireClient::Connect(
    const std::string& address, AsyncWireClientOptions options) {
  WMP_ASSIGN_OR_RETURN(const int fd,
                       ConnectTo(address, options.connect_timeout_ms));
  // The socket stays BLOCKING: the reader thread parks in ReadFrame and
  // writes flow-control themselves via the in-flight window. Only the send
  // side gets a deadline; the reader must keep blocking between responses.
  if (Status st = SetSendTimeout(fd, options.request_timeout_ms);
      !st.ok()) {
    CloseConnection(fd);
    return st;
  }
  return std::unique_ptr<AsyncWireClient>(
      new AsyncWireClient(fd, options));
}

AsyncWireClient::AsyncWireClient(int fd, AsyncWireClientOptions options)
    : options_(options), fd_(fd) {
  reader_ = std::thread([this] { ReaderLoop(); });
  if (options_.request_timeout_ms > 0) {
    timer_ = std::thread([this] { TimerLoop(); });
  }
}

AsyncWireClient::~AsyncWireClient() { Close(); }

std::chrono::steady_clock::time_point AsyncWireClient::NextDeadline() const {
  return options_.request_timeout_ms > 0
             ? std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.request_timeout_ms)
             : std::chrono::steady_clock::time_point::max();
}

Status AsyncWireClient::WriteLocked(FrameType type,
                                    std::string_view payload) {
  Status written = WriteFrame(fd_, type, payload);
  if (!written.ok()) {
    // The stream is broken for everyone, not just this request; the
    // reader notices EOF too, but whoever sees it first reports it.
    FailAll(written);
    return written;
  }
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::future<Result<ScoreResponse>>> AsyncWireClient::SubmitScore(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  uint32_t correlation_id = 0;
  std::future<Result<ScoreResponse>> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    window_cv_.wait(lock, [this] {
      return dead_ || pendings_.size() < options_.max_inflight;
    });
    if (dead_) return death_status_;
    correlation_id = next_correlation_++;
    if (next_correlation_ == 0) next_correlation_ = 1;  // 0 = never issued
    Pending pending;
    pending.deadline = NextDeadline();
    auto [it, inserted] = pendings_.emplace(correlation_id,
                                            std::move(pending));
    future = it->second.promise.get_future();
  }
  timer_cv_.notify_one();  // a new (possibly earliest) deadline exists
  const std::string payload = EncodePipelinedPayload(
      correlation_id, EncodeScoreRequest(tenant, records, batches));
  std::lock_guard<std::mutex> lock(write_mutex_);
  WMP_RETURN_IF_ERROR(
      WriteLocked(FrameType::kScoreRequestPipelined, payload));
  return future;
}

Result<std::future<Result<Frame>>> AsyncWireClient::SubmitPlain(
    FrameType request, std::string_view payload, FrameType expected) {
  std::future<Result<Frame>> future;
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_) return death_status_;
    PlainCall call;
    call.expected = expected;
    call.deadline = NextDeadline();
    future = call.promise.get_future();
    plain_calls_.push_back(std::move(call));
  }
  timer_cv_.notify_one();
  WMP_RETURN_IF_ERROR(WriteLocked(request, payload));
  return future;
}

void AsyncWireClient::ReaderLoop() {
  FrameLimits limits;
  limits.max_payload_bytes = options_.max_payload_bytes;
  for (;;) {
    auto frame = ReadFrame(fd_, limits);
    if (!frame.ok()) {
      // NotFound = clean EOF. Either way the stream is over; anything
      // unanswered will never be answered.
      FailAll(frame.status().IsNotFound()
                  ? Status::IOError(
                        "server closed the connection with requests in "
                        "flight")
                  : frame.status());
      return;
    }
    if (frame->type == FrameType::kScoreResponsePipelined ||
        frame->type == FrameType::kErrorPipelined) {
      std::string body;
      auto correlation_id = DecodePipelinedPayload(frame->payload, &body);
      if (!correlation_id.ok()) {
        FailAll(correlation_id.status());
        return;
      }
      Result<ScoreResponse> outcome = [&]() -> Result<ScoreResponse> {
        if (frame->type == FrameType::kErrorPipelined) {
          return StatusFromError(DecodeErrorBody(body));
        }
        return DecodeScoreResponse(body);
      }();
      std::promise<Result<ScoreResponse>> promise;
      bool matched = false;
      bool was_expired = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = pendings_.find(*correlation_id);
        if (it != pendings_.end()) {
          promise = std::move(it->second.promise);
          pendings_.erase(it);
          matched = true;
        } else if (expired_.erase(*correlation_id) > 0) {
          // The deadline already failed this request's future; the slow
          // answer is dropped and the stream carries on — lateness is
          // not desynchronization.
          was_expired = true;
        }
      }
      if (was_expired) continue;
      if (!matched) {
        // A response for a request we never made: the server and client
        // disagree about the stream — unrecoverable.
        FailAll(Status::Internal(StrFormat(
            "unmatched correlation id %u on pipelined response",
            *correlation_id)));
        return;
      }
      promise.set_value(std::move(outcome));
      window_cv_.notify_one();
      continue;
    }
    // Any other frame answers the oldest plain call.
    PlainCall call;
    bool have_call = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!plain_calls_.empty()) {
        call = std::move(plain_calls_.front());
        plain_calls_.pop_front();
        have_call = true;
      }
    }
    if (!have_call) {
      // A kError nobody asked about indicts the stream (e.g. a frame the
      // server could not attribute to a request).
      FailAll(frame->type == FrameType::kError
                  ? StatusFromError(DecodeErrorBody(frame->payload))
                  : Status::Internal(
                        StrFormat("unexpected %s frame with no request "
                                  "outstanding",
                                  FrameTypeName(frame->type))));
      return;
    }
    if (frame->type == FrameType::kError) {
      // Protocol-level rejection: the stream is still framed and
      // reusable; only this call failed.
      call.promise.set_value(StatusFromError(DecodeErrorBody(frame->payload)));
      continue;
    }
    if (frame->type != call.expected) {
      const Status desync = Status::Internal(
          StrFormat("expected %s frame, got %s", FrameTypeName(call.expected),
                    FrameTypeName(frame->type)));
      call.promise.set_value(desync);
      FailAll(desync);
      return;
    }
    call.promise.set_value(std::move(*frame));
  }
}

void AsyncWireClient::TimerLoop() {
  const auto never = std::chrono::steady_clock::time_point::max();
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (dead_) return;
    // Plain calls share one timeout and queue in order, so the front one
    // has the earliest deadline among them.
    auto earliest =
        plain_calls_.empty() ? never : plain_calls_.front().deadline;
    for (const auto& [correlation_id, pending] : pendings_) {
      if (pending.deadline < earliest) earliest = pending.deadline;
    }
    if (earliest == never) {
      timer_cv_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < earliest) {
      timer_cv_.wait_until(lock, earliest);
      continue;
    }
    if (!plain_calls_.empty() && plain_calls_.front().deadline <= now) {
      // A plain response carries no id: once one is overdue, a late
      // answer could only be matched to the wrong call. End the stream.
      lock.unlock();
      FailAll(Status::DeadlineExceeded(StrFormat(
          "no response within %d ms; the connection is closed",
          options_.request_timeout_ms)));
      return;
    }
    // Expire every overdue score: fail ITS future, remember its id so
    // the eventual response is dropped instead of killing the stream.
    std::vector<std::promise<Result<ScoreResponse>>> overdue;
    for (auto it = pendings_.begin(); it != pendings_.end();) {
      if (it->second.deadline <= now) {
        expired_.insert(it->first);
        overdue.push_back(std::move(it->second.promise));
        it = pendings_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (auto& promise : overdue) {
      promise.set_value(Status::DeadlineExceeded(
          StrFormat("no response within %d ms (stream still up; only this "
                    "request failed)",
                    options_.request_timeout_ms)));
    }
    window_cv_.notify_all();
    lock.lock();
  }
}

void AsyncWireClient::FailAll(const Status& status) {
  std::unordered_map<uint32_t, Pending> orphans;
  std::deque<PlainCall> plain_orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dead_) {
      dead_ = true;
      death_status_ = status;
      // Wakes a reader parked in ReadFrame and tells the server at once;
      // the descriptor itself is released only by Close, after the join.
      ::shutdown(fd_, SHUT_RDWR);
    }
    orphans.swap(pendings_);
    plain_orphans.swap(plain_calls_);
    expired_.clear();
  }
  for (auto& [correlation_id, pending] : orphans) {
    pending.promise.set_value(death_status_);
  }
  for (PlainCall& call : plain_orphans) call.promise.set_value(death_status_);
  window_cv_.notify_all();
  timer_cv_.notify_all();
}

bool AsyncWireClient::alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !dead_;
}

void AsyncWireClient::Close() {
  // FailAll shuts both directions down, which wakes the reader out of a
  // parked ReadFrame, and wakes the timer. The fd is released only after
  // both threads are joined: closing it under a live read() would free the
  // number for reuse while the reader still holds it.
  FailAll(Status::FailedPrecondition("client closed"));
  if (reader_.joinable()) reader_.join();
  if (timer_.joinable()) timer_.join();
  // A submitter that passed the liveness check may still be about to
  // write; under the write lock it finds -1 and fails instead of writing
  // to a reused descriptor number.
  std::lock_guard<std::mutex> lock(write_mutex_);
  CloseFd(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------------------
// Typed plain verbs.

namespace {

/// One plain call: submit, wait, and decode the answer's payload.
template <typename Decode>
auto Exchange(AsyncWireClient* client, FrameType request,
              std::string_view payload, FrameType expected, Decode decode)
    -> decltype(decode(std::string())) {
  WMP_ASSIGN_OR_RETURN(std::future<Result<Frame>> answer,
                       client->SubmitPlain(request, payload, expected));
  WMP_ASSIGN_OR_RETURN(Frame frame, answer.get());
  return decode(frame.payload);
}

std::string EncodeTicket(uint64_t ticket) {
  TicketRequest request;
  request.ticket = ticket;
  return EncodeTicketRequest(request);
}

}  // namespace

Status CallPing(AsyncWireClient* client) {
  return Exchange(client, FrameType::kPing, "wmp", FrameType::kPong,
                  [](const std::string& echo) {
                    return echo == "wmp" ? Status::OK()
                                         : Status::Internal(
                                               "ping payload not echoed");
                  });
}

Result<StatsResponse> CallStats(AsyncWireClient* client) {
  return Exchange(client, FrameType::kStatsRequest, "",
                  FrameType::kStatsResponse, DecodeStatsResponse);
}

Result<uint64_t> CallPublish(AsyncWireClient* client, std::string_view name,
                             std::string model_bytes) {
  PublishRequest request;
  request.model_name = std::string(name);
  request.model_bytes = std::move(model_bytes);
  // EncodePublishRequest checksums the artifact bytes; the server
  // recomputes over what it received and refuses the rollout on mismatch.
  WMP_ASSIGN_OR_RETURN(
      PublishResponse response,
      Exchange(client, FrameType::kPublishRequest,
               EncodePublishRequest(request), FrameType::kPublishResponse,
               DecodePublishResponse));
  return response.registry_epoch;
}

Result<uint64_t> CallRollback(AsyncWireClient* client,
                              std::string_view name) {
  RollbackRequest request;
  request.model_name = std::string(name);
  WMP_ASSIGN_OR_RETURN(
      RollbackResponse response,
      Exchange(client, FrameType::kRollbackRequest,
               EncodeRollbackRequest(request), FrameType::kRollbackResponse,
               DecodeRollbackResponse));
  return response.registry_epoch;
}

Result<HealthResponse> CallHealth(AsyncWireClient* client, uint64_t nonce) {
  HealthRequest request;
  request.nonce = nonce;
  WMP_ASSIGN_OR_RETURN(
      HealthResponse response,
      Exchange(client, FrameType::kHealthRequest,
               EncodeHealthRequest(request), FrameType::kHealthResponse,
               DecodeHealthResponse));
  if (response.nonce != nonce) {
    client->Close();  // a stale probe answer means the stream desynchronized
    return Status::Internal(
        StrFormat("health probe nonce mismatch (sent %llu, got %llu)",
                  static_cast<unsigned long long>(nonce),
                  static_cast<unsigned long long>(response.nonce)));
  }
  return response;
}

Result<StageResponse> CallStage(AsyncWireClient* client,
                                std::string_view name,
                                const std::string& model_bytes) {
  PublishRequest request;
  request.model_name = std::string(name);
  request.model_bytes = model_bytes;
  WMP_ASSIGN_OR_RETURN(
      StageResponse response,
      Exchange(client, FrameType::kStageRequest,
               EncodePublishRequest(request), FrameType::kStageResponse,
               DecodeStageResponse));
  const uint64_t local_hash = ArtifactChecksum(model_bytes);
  if (response.artifact_hash != local_hash) {
    return Status::Internal(StrFormat(
        "node staged artifact %016llx but %016llx was sent",
        static_cast<unsigned long long>(response.artifact_hash),
        static_cast<unsigned long long>(local_hash)));
  }
  return response;
}

Result<PublishResponse> CallCommit(AsyncWireClient* client, uint64_t ticket) {
  return Exchange(client, FrameType::kCommitRequest, EncodeTicket(ticket),
                  FrameType::kCommitResponse, DecodePublishResponse);
}

Result<AbortResponse> CallAbort(AsyncWireClient* client, uint64_t ticket) {
  return Exchange(client, FrameType::kAbortRequest, EncodeTicket(ticket),
                  FrameType::kAbortResponse, DecodeAbortResponse);
}

}  // namespace wmp::net
