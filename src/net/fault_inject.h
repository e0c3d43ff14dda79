#ifndef WMP_NET_FAULT_INJECT_H_
#define WMP_NET_FAULT_INJECT_H_

/// \file fault_inject.h
/// Deterministic fault injection under the frame layer — the chaos engine
/// behind the fleet router's failure tests.
///
/// Every blocking frame read/write in src/net (ReadFrame/WriteFrame, i.e.
/// net::AsyncWireClient and the WireClient facade over it) consults the
/// process-global armed FaultInjector. A write is one op when it starts; a
/// read is one op when its frame header has arrived, so a reader thread
/// parked between responses never takes an op index ahead of the write
/// that provokes its next response. Per operation the injector may:
///
///   kDelay      sleep before performing the op (delay storms, slow peers;
///               a delayed read sleeps before reading the payload)
///   kDrop       report a write as sent without sending it — the peer
///               waits for bytes that never come (tests read deadlines)
///   kTruncate   send a prefix of the frame, then reset the connection
///               (tests mid-payload truncation handling)
///   kBitFlip    flip one bit of the bytes actually sent (tests magic /
///               checksum validation at the receiver)
///   kReset      shut the connection down; the op fails like a peer crash
///
/// Faults fire deterministically: a plan is a SEEDED probability mix plus
/// an explicit script of {operation index -> fault} entries, and the
/// injector counts targeted operations — so a chaos test replays the exact
/// same fault sequence every run. No randomness ever leaks into a test's
/// pass/fail beyond what the seed fixes.
///
/// Production cost when disarmed: one relaxed atomic load per frame op.
///
/// Typical use (see tests/chaos_test.cc):
///
///   FaultPlan plan;
///   plan.seed = 7;
///   plan.script.push_back({.op_index = 3, .kind = FaultKind::kReset});
///   FaultInjector chaos(plan);
///   chaos.TargetFd(client_fd);   // only this connection suffers
///   chaos.Arm();
///   ... drive traffic; the 4th frame op on client_fd hits a reset ...
///   chaos.Disarm();
///
/// Thread-safety: all methods are safe from any thread; the op counter and
/// RNG advance under one mutex so concurrent connections draw a single
/// deterministic fault sequence.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "util/status.h"

namespace wmp::net {

enum class FaultKind : uint8_t {
  kNone = 0,
  kDelay,
  kDrop,      ///< writes only; a faulted read treats it as kDelay
  kTruncate,  ///< writes only; a faulted read treats it as kReset
  kBitFlip,   ///< writes only; a faulted read treats it as kReset
  kReset,
};

/// One scripted fault: fire `kind` on the `op_index`-th targeted frame
/// operation (0-based, reads and writes share the counter).
struct ScriptedFault {
  uint64_t op_index = 0;
  FaultKind kind = FaultKind::kNone;
  uint32_t delay_ms = 0;   ///< kDelay; 0 uses FaultPlan::delay_ms
  size_t keep_bytes = 1;   ///< kTruncate: prefix bytes that still go out
  uint64_t bit = 0;        ///< kBitFlip: bit index (mod buffer bits)
};

/// A deterministic chaos plan: explicit script entries win; otherwise each
/// targeted op draws from the seeded RNG against the probability mix.
struct FaultPlan {
  uint64_t seed = 1;
  double delay_prob = 0.0;
  double drop_prob = 0.0;
  double truncate_prob = 0.0;
  double flip_prob = 0.0;
  double reset_prob = 0.0;
  uint32_t delay_ms = 5;  ///< sleep for probabilistic / scripted-0 delays
  std::vector<ScriptedFault> script;
  bool faults_reads = true;
  bool faults_writes = true;
};

struct FaultStats {
  uint64_t ops = 0;  ///< targeted frame operations seen
  uint64_t delays = 0;
  uint64_t drops = 0;
  uint64_t truncations = 0;
  uint64_t bitflips = 0;
  uint64_t resets = 0;
  uint64_t faults() const {
    return delays + drops + truncations + bitflips + resets;
  }
};

/// \brief Seeded, scriptable fault source armed under the frame codec.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs this injector as THE process-global one (at most one armed
  /// at a time; arming over another replaces it). Disarm (or destruction)
  /// uninstalls.
  void Arm();
  void Disarm();

  /// Restricts faults to specific descriptors. With no targets every
  /// frame op in the process is eligible — usually too blunt when client
  /// and server share the process, so tests target the fds they mean.
  void TargetFd(int fd);

  FaultStats stats() const;

  /// \name Frame-codec hooks (called from frame.cc; not for direct use).
  /// Perform the whole blocking operation with faults applied. Writes
  /// return OK for drops (the caller believes the bytes left) and an
  /// IOError for truncations/resets; reads delay or reset.
  /// @{
  Status InjectedWrite(int fd, const char* data, size_t n);
  /// Runs once a frame header has arrived, before the payload is read;
  /// on a reset fault shuts the connection down and returns the error the
  /// read would then surface.
  Status AfterHeader(int fd);
  /// @}

 private:
  /// Draws the fault for the next targeted op (advances counter + RNG).
  /// `n` is the write size (0 for reads), used to size default truncation.
  ScriptedFault NextFault(size_t n);
  bool Targets(int fd) const;

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::unordered_set<int> target_fds_;
  uint64_t op_counter_ = 0;
  uint64_t rng_state_;
  FaultStats stats_;
};

/// The armed injector, or nullptr (the production state).
FaultInjector* ActiveFaultInjector();

}  // namespace wmp::net

#endif  // WMP_NET_FAULT_INJECT_H_
