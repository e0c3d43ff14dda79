#include "net/frame.h"

#include <cerrno>
#include <cstring>
#include <sys/types.h>
#include <unistd.h>

#include "net/fault_inject.h"
#include "net/socket.h"
#include "util/strings.h"

namespace wmp::net {

namespace {

constexpr uint32_t kFrameMagic = 0x31464D57;  // "WMF1" little-endian
constexpr size_t kHeaderBytes = kFrameHeaderBytes;

// Blocking read of exactly n bytes. `*got` reports progress so the caller
// can distinguish clean EOF (0 bytes) from a truncated frame. A read that
// cannot proceed (EAGAIN on a nonblocking descriptor) reports
// kDeadlineExceeded.
Status ReadAll(int fd, char* data, size_t n, size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t r = ReadSome(fd, data + *got, n - *got);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("frame read timed out");
      }
      return Status::IOError(
          StrFormat("frame read failed: %s", std::strerror(errno)));
    }
    if (r == 0) return Status::OK();  // EOF; caller checks *got
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status ValidateHeader(const char* header, const FrameLimits& limits,
                      FrameType* type, uint32_t* payload_len) {
  uint32_t magic = 0;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(
        StrFormat("bad frame magic 0x%08x (peer is not speaking the WMF1 "
                  "protocol, or the stream desynchronized)",
                  magic));
  }
  *type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  std::memcpy(payload_len, header + 5, sizeof(*payload_len));
  if (static_cast<size_t>(*payload_len) > limits.max_payload_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %zu-byte limit",
                  *payload_len, limits.max_payload_bytes));
  }
  return Status::OK();
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kScoreRequest: return "score-request";
    case FrameType::kScoreResponse: return "score-response";
    case FrameType::kPublishRequest: return "publish-request";
    case FrameType::kPublishResponse: return "publish-response";
    case FrameType::kStatsRequest: return "stats-request";
    case FrameType::kStatsResponse: return "stats-response";
    case FrameType::kRollbackRequest: return "rollback-request";
    case FrameType::kRollbackResponse: return "rollback-response";
    case FrameType::kScoreRequestPipelined: return "score-request-pipelined";
    case FrameType::kScoreResponsePipelined:
      return "score-response-pipelined";
    case FrameType::kHealthRequest: return "health-request";
    case FrameType::kHealthResponse: return "health-response";
    case FrameType::kStageRequest: return "stage-request";
    case FrameType::kStageResponse: return "stage-response";
    case FrameType::kCommitRequest: return "commit-request";
    case FrameType::kCommitResponse: return "commit-response";
    case FrameType::kAbortRequest: return "abort-request";
    case FrameType::kAbortResponse: return "abort-response";
    case FrameType::kErrorPipelined: return "error-pipelined";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  const uint32_t magic = kFrameMagic;
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.push_back(static_cast<char>(type));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(payload.data(), payload.size());
  return out;
}

Result<Frame> DecodeFrame(std::string_view buf, const FrameLimits& limits,
                          size_t* consumed) {
  *consumed = 0;
  if (buf.size() < kHeaderBytes) {
    return Status::OutOfRange("incomplete frame header");
  }
  FrameType type;
  uint32_t payload_len = 0;
  WMP_RETURN_IF_ERROR(ValidateHeader(buf.data(), limits, &type, &payload_len));
  if (buf.size() < kHeaderBytes + payload_len) {
    return Status::OutOfRange("incomplete frame payload");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(buf.data() + kHeaderBytes, payload_len);
  *consumed = kHeaderBytes + payload_len;
  return frame;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload exceeds 4 GB");
  }
  // One header+payload buffer, one write loop: a frame is never interleaved
  // with another thread's frame as long as callers serialize per fd.
  const std::string wire = EncodeFrame(type, payload);
  // An armed FaultInjector takes over the whole write (chaos tests). With
  // SO_SNDTIMEO armed on the fd a stalled peer surfaces as
  // kDeadlineExceeded, not an indefinite block.
  if (FaultInjector* chaos = ActiveFaultInjector()) {
    return chaos->InjectedWrite(fd, wire.data(), wire.size());
  }
  return SendAll(fd, wire.data(), wire.size());
}

Result<Frame> ReadFrame(int fd, const FrameLimits& limits) {
  char header[kHeaderBytes];
  size_t got = 0;
  WMP_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &got));
  if (got == 0) return Status::NotFound("peer disconnected");
  if (got < sizeof(header)) {
    return Status::IOError(
        StrFormat("connection closed inside a frame header (%zu/%zu bytes)",
                  got, sizeof(header)));
  }
  // Read faults count once a header has ARRIVED, not when a reader starts
  // waiting: a reader thread parked between responses then never takes an
  // op index ahead of its caller's next write.
  if (FaultInjector* chaos = ActiveFaultInjector()) {
    WMP_RETURN_IF_ERROR(chaos->AfterHeader(fd));
  }
  FrameType type;
  uint32_t payload_len = 0;
  WMP_RETURN_IF_ERROR(ValidateHeader(header, limits, &type, &payload_len));
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    WMP_RETURN_IF_ERROR(ReadAll(fd, frame.payload.data(), payload_len, &got));
    if (got < payload_len) {
      return Status::IOError(
          StrFormat("connection closed inside a frame payload (%zu/%u bytes)",
                    got, payload_len));
    }
  }
  return frame;
}

}  // namespace wmp::net
