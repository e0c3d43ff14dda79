#include "net/fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/backoff.h"
#include "net/protocol.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"

namespace wmp::net {

const char* NodeHealthName(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kSuspect: return "suspect";
    case NodeHealth::kDown: return "down";
    case NodeHealth::kProbing: return "probing";
  }
  return "unknown";
}

FleetRouter::FleetRouter(std::vector<std::string> node_addresses,
                         FleetRouterOptions options)
    : options_(options) {
  nodes_.reserve(node_addresses.size());
  for (std::string& address : node_addresses) {
    auto node = std::make_unique<Node>();
    node->address = std::move(address);
    nodes_.push_back(std::move(node));
  }
}

FleetRouter::~FleetRouter() { Stop(); }

Status FleetRouter::Start() {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    if (started_) return Status::OK();
    started_ = true;
    stopping_ = false;
  }
  // Health states start from evidence: one synchronous sweep before any
  // traffic, so a fleet that is fully up routes healthy immediately and a
  // dead node is down before the first client call wastes a deadline.
  ProbeNow();
  if (options_.probe_interval_ms > 0) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  return Status::OK();
}

void FleetRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  for (auto& node : nodes_) {
    std::lock_guard<std::mutex> lock(node->conn_mutex);
    if (node->client) node->client->Close();
    node->client.reset();
  }
  std::lock_guard<std::mutex> lock(probe_mutex_);
  started_ = false;
}

void FleetRouter::ProbeLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(probe_mutex_);
      probe_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.probe_interval_ms),
          [this] { return stopping_; });
      if (stopping_) return;
    }
    ProbeNow();
  }
}

void FleetRouter::ProbeNow() {
  for (auto& node : nodes_) {
    (void)ProbeNode(node.get());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.probe_sweeps++;
}

Status FleetRouter::ProbeNode(Node* node) {
  uint64_t nonce = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    nonce = probe_nonce_++;
    // The probe thread adopting a down node is the ONLY way out of down.
    if (node->health == NodeHealth::kDown) node->health = NodeHealth::kProbing;
  }
  auto health = WithControl(node, [nonce](AsyncWireClient* client) {
    return CallHealth(client, nonce);
  });
  if (!health.ok()) {
    MarkFailure(node, OutcomeKind::kProbe);
    return health.status();
  }
  MarkSuccess(node, OutcomeKind::kProbe);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    node->observed_epoch = health->registry_epoch;
  }
  // Observe even epoch 0 (node up, no model): "fresh node among published
  // peers" is precisely a mixed-epoch fleet the map must flag.
  epoch_map_.Observe(node->address, health->registry_epoch);
  return Status::OK();
}

template <typename Op>
auto FleetRouter::WithControl(Node* node, Op&& op)
    -> decltype(op(static_cast<AsyncWireClient*>(nullptr))) {
  auto client = EnsureClient(node);
  if (!client.ok()) return client.status();
  return op(client->get());
}

void FleetRouter::MarkSuccess(Node* node, OutcomeKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  node->consecutive_failures = 0;
  node->health = NodeHealth::kHealthy;
  if (kind == OutcomeKind::kScore) node->scores_ok++;
  if (kind == OutcomeKind::kProbe) node->probes_ok++;
}

void FleetRouter::MarkFailure(Node* node, OutcomeKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  node->consecutive_failures++;
  if (kind == OutcomeKind::kScore) node->scores_failed++;
  if (kind == OutcomeKind::kProbe) node->probes_failed++;
  if (node->health == NodeHealth::kProbing) {
    // A probing node that fails again was down and stays down.
    node->health = NodeHealth::kDown;
  } else if (node->consecutive_failures >= options_.down_after_failures) {
    node->health = NodeHealth::kDown;
  } else if (node->health == NodeHealth::kHealthy) {
    node->health = NodeHealth::kSuspect;
  }
}

FleetRouter::Node* FleetRouter::PickNode(uint64_t tenant_hash,
                                         const std::vector<Node*>& tried) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Preference tiers: healthy > suspect > probing (unknown beats known-
  // dead) > down (the absolute last resort — a wrong "down" verdict must
  // not fail a client call when no better replica exists).
  std::vector<Node*> tiers[4];
  for (const auto& node : nodes_) {
    if (std::find(tried.begin(), tried.end(), node.get()) != tried.end()) {
      continue;
    }
    switch (node->health) {
      case NodeHealth::kHealthy: tiers[0].push_back(node.get()); break;
      case NodeHealth::kSuspect: tiers[1].push_back(node.get()); break;
      case NodeHealth::kProbing: tiers[2].push_back(node.get()); break;
      case NodeHealth::kDown: tiers[3].push_back(node.get()); break;
    }
  }
  for (const auto& tier : tiers) {
    // Hash-pick inside the tier: tenant affinity when everything is
    // healthy, deterministic spread when not.
    if (!tier.empty()) return tier[tenant_hash % tier.size()];
  }
  return nullptr;
}

Result<std::shared_ptr<AsyncWireClient>> FleetRouter::EnsureClient(
    Node* node) {
  std::lock_guard<std::mutex> lock(node->conn_mutex);
  if (node->client && node->client->alive()) return node->client;
  AsyncWireClientOptions copts;
  copts.max_payload_bytes = options_.max_payload_bytes;
  copts.max_inflight = options_.max_inflight;
  copts.connect_timeout_ms = options_.connect_timeout_ms;
  copts.request_timeout_ms = options_.request_timeout_ms;
  WMP_ASSIGN_OR_RETURN(auto client, AsyncWireClient::Connect(node->address,
                                                             copts));
  node->client = std::shared_ptr<AsyncWireClient>(std::move(client));
  return node->client;
}

Result<std::vector<Result<double>>> FleetRouter::ScoreOnNode(
    Node* node, std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  WMP_ASSIGN_OR_RETURN(std::shared_ptr<AsyncWireClient> client,
                       EnsureClient(node));
  WMP_ASSIGN_OR_RETURN(std::future<Result<ScoreResponse>> future,
                       client->SubmitScore(tenant, records, batches));
  WMP_ASSIGN_OR_RETURN(ScoreResponse response, future.get());
  return ScoreOutcomes(response, batches.size());
}

Result<std::vector<Result<double>>> FleetRouter::ScoreWorkloads(
    std::string_view tenant,
    const std::vector<workloads::QueryRecord>& records,
    const std::vector<core::WorkloadBatch>& batches) {
  const uint64_t tenant_hash =
      util::HashBytes(tenant.data(), tenant.size(), options_.seed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.scores++;
  }
  uint64_t jitter_state = tenant_hash ^ options_.seed;
  std::vector<Node*> tried;
  Status last_error = Status::IOError("no fleet nodes configured");
  const int attempts =
      options_.max_score_attempts < 1 ? 1 : options_.max_score_attempts;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.score_retries++;
      }
      const uint32_t delay_ms =
          BackoffDelayMs(&jitter_state, attempt - 1,
                         options_.backoff_base_ms, options_.backoff_cap_ms);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    Node* node = PickNode(tenant_hash, tried);
    if (node == nullptr) {
      // Every node has been tried this call; clear the exclusion list and
      // re-approach the least-bad candidate after the backoff above.
      tried.clear();
      node = PickNode(tenant_hash, tried);
    }
    if (node == nullptr) {
      last_error = Status::IOError("fleet has no nodes");
      continue;
    }
    auto outcome = ScoreOnNode(node, tenant, records, batches);
    if (outcome.ok()) {
      MarkSuccess(node, OutcomeKind::kScore);
      return outcome;
    }
    MarkFailure(node, OutcomeKind::kScore);
    tried.push_back(node);
    last_error = outcome.status();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.score_failures++;
  }
  return last_error;
}

FleetRolloutReport FleetRouter::PublishAll(
    std::string_view name, const core::LearnedWmpModel& model) {
  std::lock_guard<std::mutex> rollout_lock(rollout_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.publishes++;
  }
  FleetRolloutReport report;
  report.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    report.nodes[i].address = nodes_[i]->address;
  }
  if (nodes_.empty()) {
    report.failure = "fleet has no nodes";
    return report;
  }
  BinaryWriter artifact;
  if (Status st = model.Serialize(&artifact); !st.ok()) {
    report.failure = "artifact serialization failed: " + st.ToString();
    return report;
  }
  // Serialized exactly once: every node stages the SAME bytes, so the
  // per-node checksum (DecodePublishRequest) plus the fleet-wide epoch
  // check below make "all nodes serve the identical artifact" verifiable.
  const std::string& bytes = artifact.buffer();

  // ---- Phase 1: stage on every node (installs nothing anywhere). ----
  bool stage_ok = true;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node* node = nodes_[i].get();
    FleetNodeRollout& entry = report.nodes[i];
    auto staged = WithControl(node, [&](AsyncWireClient* client) {
      return CallStage(client, name, bytes);
    });
    if (staged.ok()) {
      entry.staged = true;
      entry.ticket = staged->ticket;
      MarkSuccess(node, OutcomeKind::kControl);
    } else {
      entry.error = staged.status().ToString();
      stage_ok = false;
      MarkFailure(node, OutcomeKind::kControl);
    }
  }
  if (!stage_ok) {
    // Compensation is cheap here: nothing installed, so aborting the
    // staged copies returns the fleet to exactly its prior state.
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!report.nodes[i].staged) continue;
      auto aborted =
          WithControl(nodes_[i].get(), [&](AsyncWireClient* client) {
            return CallAbort(client, report.nodes[i].ticket);
          });
      if (aborted.ok()) report.nodes[i].aborted = true;
    }
    report.failure =
        "stage phase failed; rollout aborted, no node changed epoch";
    return report;
  }

  // ---- Phase 2: commit everywhere. ----
  size_t failed_at = nodes_.size();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node* node = nodes_[i].get();
    FleetNodeRollout& entry = report.nodes[i];
    auto committed = WithControl(node, [&](AsyncWireClient* client) {
      return CallCommit(client, entry.ticket);
    });
    if (committed.ok()) {
      entry.committed = true;
      entry.epoch = committed->registry_epoch;
      MarkSuccess(node, OutcomeKind::kControl);
    } else {
      entry.error = committed.status().ToString();
      MarkFailure(node, OutcomeKind::kControl);
      failed_at = i;
      break;
    }
  }
  if (failed_at < nodes_.size()) {
    // Compensate: already-committed nodes roll back to the prior epoch,
    // still-staged nodes abort. Either way no node keeps the new model.
    for (size_t i = 0; i < failed_at; ++i) {
      Node* node = nodes_[i].get();
      FleetNodeRollout& entry = report.nodes[i];
      auto rolled = WithControl(node, [&](AsyncWireClient* client) {
        return CallRollback(client, name);
      });
      if (rolled.ok()) {
        entry.compensated = true;
        entry.epoch = *rolled;
        epoch_map_.Observe(node->address, entry.epoch);
      } else {
        entry.error = "compensating rollback failed: " +
                      rolled.status().ToString();
      }
    }
    // The failed node itself is ambiguous: its commit response was lost,
    // so the install may or may not have happened. Ask the node — a
    // consumed ticket plus an epoch that moved off the last-observed one
    // means the commit landed and must roll back; a still-parked ticket
    // (or an unreachable node that never saw the commit) means an abort
    // restores the prior state. This is why probes feed observed_epoch:
    // it is the "before" picture this comparison needs.
    {
      Node* node = nodes_[failed_at].get();
      FleetNodeRollout& entry = report.nodes[failed_at];
      uint64_t prior_epoch = 0;
      uint64_t nonce = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        prior_epoch = node->observed_epoch;
        nonce = probe_nonce_++;
      }
      auto health = WithControl(node, [nonce](AsyncWireClient* client) {
        return CallHealth(client, nonce);
      });
      const bool committed_after_all = health.ok() &&
                                       health->staged_ticket != entry.ticket &&
                                       health->registry_epoch != prior_epoch;
      if (committed_after_all) {
        auto rolled = WithControl(node, [&](AsyncWireClient* client) {
          return CallRollback(client, name);
        });
        if (rolled.ok()) {
          entry.compensated = true;
          entry.epoch = *rolled;
          epoch_map_.Observe(node->address, entry.epoch);
        } else {
          entry.error += "; compensating rollback failed: " +
                         rolled.status().ToString();
        }
      } else {
        // Ticket 0: discard whatever is parked — the node may have died
        // between our stage and this abort, leaving us without a ticket.
        auto aborted = WithControl(node, [](AsyncWireClient* client) {
          return CallAbort(client, 0);
        });
        if (aborted.ok()) entry.aborted = true;
      }
    }
    for (size_t i = failed_at + 1; i < nodes_.size(); ++i) {
      auto aborted =
          WithControl(nodes_[i].get(), [&](AsyncWireClient* client) {
            return CallAbort(client, report.nodes[i].ticket);
          });
      if (aborted.ok()) report.nodes[i].aborted = true;
    }
    report.failure = StrFormat(
        "commit failed on %s; committed nodes rolled back, staged nodes "
        "aborted",
        nodes_[failed_at]->address.c_str());
    return report;
  }

  report.ok = true;
  report.epoch = report.nodes[0].epoch;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const FleetNodeRollout& entry = report.nodes[i];
    {
      std::lock_guard<std::mutex> lock(mutex_);
      nodes_[i]->observed_epoch = entry.epoch;
    }
    epoch_map_.Observe(entry.address, entry.epoch);
    if (entry.epoch != report.epoch) {
      // All commits succeeded but epochs disagree: the nodes had already
      // diverged BEFORE this rollout. The rollout stands; flag loudly.
      report.failure = StrFormat(
          "warning: fleet epochs diverged before this rollout (%s is on "
          "%llu, fleet target %llu)",
          entry.address.c_str(),
          static_cast<unsigned long long>(entry.epoch),
          static_cast<unsigned long long>(report.epoch));
    }
  }
  epoch_map_.SetTarget(report.epoch);
  return report;
}

FleetRolloutReport FleetRouter::RollbackAll(std::string_view name) {
  std::lock_guard<std::mutex> rollout_lock(rollout_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.rollbacks++;
  }
  FleetRolloutReport report;
  report.nodes.resize(nodes_.size());
  bool all_ok = !nodes_.empty();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node* node = nodes_[i].get();
    FleetNodeRollout& entry = report.nodes[i];
    entry.address = node->address;
    auto rolled = WithControl(node, [&](AsyncWireClient* client) {
      return CallRollback(client, name);
    });
    if (rolled.ok()) {
      entry.committed = true;
      entry.epoch = *rolled;
      MarkSuccess(node, OutcomeKind::kControl);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        node->observed_epoch = entry.epoch;
      }
      epoch_map_.Observe(node->address, entry.epoch);
    } else {
      entry.error = rolled.status().ToString();
      all_ok = false;
      MarkFailure(node, OutcomeKind::kControl);
    }
  }
  report.ok = all_ok;
  if (all_ok) {
    report.epoch = report.nodes[0].epoch;
    epoch_map_.SetTarget(report.epoch);
  } else {
    report.failure =
        "rollback did not reach every node; fleet may be on mixed epochs "
        "— probe and re-drive (each node keeps its registry history)";
  }
  return report;
}

std::vector<FleetNodeStatus> FleetRouter::Nodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FleetNodeStatus> statuses;
  statuses.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    FleetNodeStatus status;
    status.address = node->address;
    status.health = node->health;
    status.consecutive_failures = node->consecutive_failures;
    status.observed_epoch = node->observed_epoch;
    status.scores_ok = node->scores_ok;
    status.scores_failed = node->scores_failed;
    status.probes_ok = node->probes_ok;
    status.probes_failed = node->probes_failed;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

FleetRouterCounters FleetRouter::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace wmp::net
