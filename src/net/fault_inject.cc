#include "net/fault_inject.h"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "net/backoff.h"
#include "net/socket.h"
#include "util/strings.h"

namespace wmp::net {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

double UnitDouble(uint64_t r) {
  return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_state_(plan_.seed) {}

FaultInjector::~FaultInjector() { Disarm(); }

void FaultInjector::Arm() { g_injector.store(this, std::memory_order_release); }

void FaultInjector::Disarm() {
  FaultInjector* expected = this;
  g_injector.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel);
}

void FaultInjector::TargetFd(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  target_fds_.insert(fd);
}

bool FaultInjector::Targets(int fd) const {
  return target_fds_.empty() || target_fds_.count(fd) > 0;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ScriptedFault FaultInjector::NextFault(size_t n) {
  // Counter and RNG advance for every targeted op, faulted or not, so the
  // sequence of draws — and therefore which ops fault — depends only on
  // the plan and the op order, never on what earlier faults did.
  const uint64_t index = op_counter_++;
  const double u = UnitDouble(BackoffNextRand(&rng_state_));
  stats_.ops++;
  for (const ScriptedFault& s : plan_.script) {
    if (s.op_index == index && s.kind != FaultKind::kNone) return s;
  }
  ScriptedFault fault;
  fault.delay_ms = plan_.delay_ms;
  fault.keep_bytes = n > 1 ? n / 2 : 0;  // default truncation: half a frame
  double edge = plan_.delay_prob;
  if (u < edge) {
    fault.kind = FaultKind::kDelay;
    return fault;
  }
  if (u < (edge += plan_.drop_prob)) {
    fault.kind = FaultKind::kDrop;
    return fault;
  }
  if (u < (edge += plan_.truncate_prob)) {
    fault.kind = FaultKind::kTruncate;
    return fault;
  }
  if (u < (edge += plan_.flip_prob)) {
    fault.kind = FaultKind::kBitFlip;
    fault.bit = BackoffNextRand(&rng_state_);
    return fault;
  }
  if (u < edge + plan_.reset_prob) {
    fault.kind = FaultKind::kReset;
    return fault;
  }
  return fault;  // kNone
}

Status FaultInjector::InjectedWrite(int fd, const char* data, size_t n) {
  ScriptedFault fault;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!plan_.faults_writes || !Targets(fd)) return SendAll(fd, data, n);
    fault = NextFault(n);
    switch (fault.kind) {
      case FaultKind::kNone: break;
      case FaultKind::kDelay: stats_.delays++; break;
      case FaultKind::kDrop: stats_.drops++; break;
      case FaultKind::kTruncate: stats_.truncations++; break;
      case FaultKind::kBitFlip: stats_.bitflips++; break;
      case FaultKind::kReset: stats_.resets++; break;
    }
  }
  switch (fault.kind) {
    case FaultKind::kNone:
      return SendAll(fd, data, n);
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(
          fault.delay_ms > 0 ? fault.delay_ms : plan_.delay_ms));
      return SendAll(fd, data, n);
    case FaultKind::kDrop:
      // The caller believes the frame left; the peer never sees it. The
      // bytes-in-flight invariant a deadline must cover.
      return Status::OK();
    case FaultKind::kTruncate: {
      const size_t keep = fault.keep_bytes < n ? fault.keep_bytes : n / 2;
      Status st = keep > 0 ? SendAll(fd, data, keep) : Status::OK();
      ::shutdown(fd, SHUT_RDWR);
      return st.ok() ? Status::IOError(StrFormat(
                           "fault injection: frame truncated after %zu/%zu "
                           "bytes and connection reset",
                           keep, n))
                     : st;
    }
    case FaultKind::kBitFlip: {
      std::string corrupted(data, n);
      if (n > 0) {
        const uint64_t bit = fault.bit % (static_cast<uint64_t>(n) * 8);
        corrupted[static_cast<size_t>(bit / 8)] ^=
            static_cast<char>(1u << (bit % 8));
      }
      return SendAll(fd, corrupted.data(), corrupted.size());
    }
    case FaultKind::kReset:
      ::shutdown(fd, SHUT_RDWR);
      return Status::IOError("fault injection: connection reset on write");
  }
  return SendAll(fd, data, n);
}

Status FaultInjector::AfterHeader(int fd) {
  ScriptedFault fault;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!plan_.faults_reads || !Targets(fd)) return Status::OK();
    fault = NextFault(0);
    switch (fault.kind) {
      case FaultKind::kNone: break;
      // Write-only kinds degrade to the nearest read-shaped fault.
      case FaultKind::kDrop:
      case FaultKind::kDelay: stats_.delays++; break;
      case FaultKind::kTruncate:
      case FaultKind::kBitFlip:
      case FaultKind::kReset: stats_.resets++; break;
    }
  }
  switch (fault.kind) {
    case FaultKind::kNone:
      return Status::OK();
    case FaultKind::kDelay:
    case FaultKind::kDrop:
      std::this_thread::sleep_for(std::chrono::milliseconds(
          fault.delay_ms > 0 ? fault.delay_ms : plan_.delay_ms));
      return Status::OK();
    case FaultKind::kTruncate:
    case FaultKind::kBitFlip:
    case FaultKind::kReset:
      ::shutdown(fd, SHUT_RDWR);
      return Status::IOError("fault injection: connection reset on read");
  }
  return Status::OK();
}

FaultInjector* ActiveFaultInjector() {
  return g_injector.load(std::memory_order_acquire);
}

}  // namespace wmp::net
