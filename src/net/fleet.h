#ifndef WMP_NET_FLEET_H_
#define WMP_NET_FLEET_H_

/// \file fleet.h
/// Fault-tolerant fleet router: fans tenants across several predictor
/// nodes, survives node deaths under traffic, and extends the all-or-
/// nothing rollout guarantee from cross-shard (PR 5) to cross-node.
///
/// ## Topology
///
/// One FleetRouter holds ONE connection per predictor node
/// (net::AsyncWireClient): pipelined scores and the control plane's plain
/// calls (probes, stage/commit/abort/rollback, via the typed Call* verbs)
/// share it, and one deadline bounds both. Tenants hash onto nodes; every
/// scoring call can fail over to a replica, so a node death under traffic
/// costs retries — never a failed client call.
///
/// ## Per-node state machine
///
///       every success
///     ┌───────────────────────────────┐
///     ▼                               │
///   HEALTHY ──failure──▶ SUSPECT ──┐  │
///     ▲                    │       │failures reach
///     │            success │       │down_after_failures
///     │                    ▼       ▼
///     └──probe ok──── PROBING ◀── DOWN
///                        │  (probe thread adopts the node)
///                        └──probe fails──▶ DOWN
///
/// Transitions are driven by BOTH request outcomes and a periodic
/// health/epoch probe (kHealthRequest). Healthy and suspect nodes serve
/// traffic (suspect only when no healthy candidate remains); down nodes
/// serve nothing until a probe succeeds. The probe also carries the
/// node's registry epoch, so a node that restarted with stale state is
/// caught even while it answers pings happily (see engine/fleet_map.h).
///
/// ## Two-phase fleet publish
///
/// PublishAll serializes the artifact ONCE and runs:
///   phase 1  STAGE on every node: validate checksum + deserialize, park
///            without installing. Any failure -> ABORT on all staged
///            nodes; no node changed epoch.
///   phase 2  COMMIT (the ticket) on every node. A commit failure at node
///            k triggers compensation: ROLLBACK on nodes 0..k-1 (already
///            committed) and ABORT on k+1.. (still staged) — the fleet is
///            never left serving mixed epochs.
/// RollbackAll drives every live node's single-node rollback and reports
/// per-node outcomes; the epoch map flags any divergence it leaves.
///
/// ## Determinism
///
/// Retry jitter and tenant hashing are splitmix64-seeded; paired with a
/// net::FaultInjector script, a chaos test replays the same routing and
/// fault sequence every run.
///
/// Thread-safety: ScoreWorkloads may be called from many threads;
/// PublishAll/RollbackAll serialize on an internal rollout mutex.

#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/learned_wmp.h"
#include "core/workload.h"
#include "engine/fleet_map.h"
#include "net/async_client.h"
#include "util/status.h"
#include "workloads/query_record.h"

namespace wmp::net {

enum class NodeHealth : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDown = 2,
  kProbing = 3,
};

const char* NodeHealthName(NodeHealth health);

struct FleetRouterOptions {
  /// Deadlines on everything the router does to a node: connect, and
  /// each score or control call on its connection (see AsyncWireClient).
  /// A hung node must cost a bounded wait, then the state machine takes
  /// over.
  int connect_timeout_ms = 1000;
  int request_timeout_ms = 2000;
  /// Probe cadence of the background health thread (<= 0 disables the
  /// thread; tests drive ProbeNow() instead for determinism).
  int probe_interval_ms = 200;
  /// Consecutive failures that take a node suspect -> down. The first
  /// failure always demotes healthy -> suspect.
  int down_after_failures = 3;
  /// Scoring attempts per call across failovers (>= 1).
  int max_score_attempts = 4;
  /// Bounded-backoff-with-jitter pacing between attempts (net/backoff.h).
  uint32_t backoff_base_ms = 5;
  uint32_t backoff_cap_ms = 200;
  /// Seeds tenant hashing and retry jitter (deterministic chaos tests).
  uint64_t seed = 1;
  size_t max_inflight = 32;  ///< per-node pipelined window
  size_t max_payload_bytes = 64ull << 20;
};

/// Point-in-time view of one node (status output + test assertions).
struct FleetNodeStatus {
  std::string address;
  NodeHealth health = NodeHealth::kProbing;
  int consecutive_failures = 0;
  uint64_t observed_epoch = 0;
  uint64_t scores_ok = 0;
  uint64_t scores_failed = 0;
  uint64_t probes_ok = 0;
  uint64_t probes_failed = 0;
};

/// What happened to one node during a fleet rollout.
struct FleetNodeRollout {
  std::string address;
  bool staged = false;
  bool committed = false;
  bool aborted = false;      ///< staged artifact discarded (compensation)
  bool compensated = false;  ///< committed, then rolled back (compensation)
  uint64_t ticket = 0;
  uint64_t epoch = 0;  ///< epoch the node reported for the op
  std::string error;
};

struct FleetRolloutReport {
  bool ok = false;
  uint64_t epoch = 0;  ///< fleet-wide epoch after success
  std::string failure;  ///< why the rollout failed (empty when ok)
  std::vector<FleetNodeRollout> nodes;
};

/// Router-level counters (per-node ones live in FleetNodeStatus).
struct FleetRouterCounters {
  uint64_t scores = 0;          ///< client scoring calls served
  uint64_t score_failures = 0;  ///< calls that exhausted every attempt
  uint64_t score_retries = 0;   ///< extra attempts spent (failovers)
  uint64_t publishes = 0;
  uint64_t rollbacks = 0;
  uint64_t probe_sweeps = 0;
};

/// \brief Health-tracking, failover-scoring, two-phase-publishing router.
class FleetRouter {
 public:
  explicit FleetRouter(std::vector<std::string> node_addresses,
                       FleetRouterOptions options = {});
  ~FleetRouter();
  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Runs an initial probe sweep (so health states start from evidence,
  /// not hope) and starts the background probe thread. Start succeeds
  /// even with every node down — the fleet may come up after the router.
  Status Start();

  /// Stops the probe thread and drops every connection. Idempotent; the
  /// destructor calls it.
  void Stop();

  /// Scores one tenant request with failover: pick the tenant's node
  /// among the healthiest candidates, retry with backoff+jitter on
  /// another replica on any failure. Fails only when every attempt on
  /// every eligible node is exhausted.
  Result<std::vector<Result<double>>> ScoreWorkloads(
      std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);

  /// Two-phase fleet publish (see the file comment). Serializes `model`
  /// once; every configured node must stage and commit, a down node fails
  /// the rollout (and costs nothing — stage installs nothing). The
  /// returned report is also produced for FAILED rollouts; `ok` and
  /// `failure` summarize, per-node entries itemize.
  FleetRolloutReport PublishAll(std::string_view name,
                                const core::LearnedWmpModel& model);

  /// Fleet-wide rollback to each node's previous epoch.
  FleetRolloutReport RollbackAll(std::string_view name);

  /// One synchronous probe sweep over every node (what the background
  /// thread runs on its interval). Deterministic hook for tests.
  void ProbeNow();

  std::vector<FleetNodeStatus> Nodes() const;
  FleetRouterCounters counters() const;
  const engine::FleetEpochMap& epoch_map() const { return epoch_map_; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    std::string address;
    NodeHealth health = NodeHealth::kProbing;
    int consecutive_failures = 0;
    uint64_t observed_epoch = 0;
    uint64_t scores_ok = 0;
    uint64_t scores_failed = 0;
    uint64_t probes_ok = 0;
    uint64_t probes_failed = 0;
    /// The node's one connection, for scores and control calls alike;
    /// replaced on stream death (under conn_mutex).
    std::shared_ptr<AsyncWireClient> client;
    std::mutex conn_mutex;  ///< guards `client` setup
  };

  /// Which activity an outcome came from — scoring and probing keep their
  /// own counters; all three drive the same health state machine.
  enum class OutcomeKind { kScore, kProbe, kControl };

  /// Picks the scoring node for `tenant_hash`: healthy candidates first,
  /// then suspect, then probing (unknown beats known-dead), then — as the
  /// final resort — down nodes; never one already in `tried`.
  Node* PickNode(uint64_t tenant_hash, const std::vector<Node*>& tried);
  /// Returns the node's live connection, (re)connecting if needed.
  Result<std::shared_ptr<AsyncWireClient>> EnsureClient(Node* node);
  /// One scoring attempt against one node.
  Result<std::vector<Result<double>>> ScoreOnNode(
      Node* node, std::string_view tenant,
      const std::vector<workloads::QueryRecord>& records,
      const std::vector<core::WorkloadBatch>& batches);
  /// Runs one control call (`op`, a Call* verb) on the node's connection,
  /// connecting first if needed. One attempt: retry policy belongs to the
  /// router's state machine, not to the per-node connection.
  template <typename Op>
  auto WithControl(Node* node, Op&& op)
      -> decltype(op(static_cast<AsyncWireClient*>(nullptr)));

  void MarkSuccess(Node* node, OutcomeKind kind);
  void MarkFailure(Node* node, OutcomeKind kind);
  Status ProbeNode(Node* node);
  void ProbeLoop();

  std::vector<std::unique_ptr<Node>> nodes_;
  FleetRouterOptions options_;
  engine::FleetEpochMap epoch_map_;

  mutable std::mutex mutex_;  ///< health/counters state on every node
  FleetRouterCounters counters_;
  uint64_t probe_nonce_ = 1;

  std::mutex rollout_mutex_;  ///< serializes PublishAll/RollbackAll

  std::thread probe_thread_;
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace wmp::net

#endif  // WMP_NET_FLEET_H_
