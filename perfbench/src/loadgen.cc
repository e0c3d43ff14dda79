#include "loadgen.h"

#include <stdexcept>

namespace perfbench {

Schedule PoissonSchedule(double rate_wps, double seconds, Rand* rand,
                         const std::function<uint32_t()>& pick) {
  Schedule s;
  const double mean_gap_ns = 1e9 / rate_wps;
  const double end_ns = seconds * 1e9;
  for (double t = rand->Exponential(mean_gap_ns); t < end_ns;
       t += rand->Exponential(mean_gap_ns)) {
    s.due_ns.push_back(static_cast<int64_t>(t));
    s.workload.push_back(pick());
  }
  return s;
}

WireLanes::WireLanes(const std::string& address, size_t lanes) {
  wmp::net::AsyncWireClientOptions options;
  // Open loop: the window must never be what paces the sender.
  options.max_inflight = 1 << 14;
  options.connect_timeout_ms = 5000;
  // A stalled server fails requests instead of hanging the run.
  options.request_timeout_ms = 20000;
  for (size_t i = 0; i < lanes; ++i) {
    auto client = wmp::net::AsyncWireClient::Connect(address, options);
    if (!client.ok()) {
      throw std::runtime_error("connect: " + client.status().ToString());
    }
    clients_.push_back(std::move(*client));
  }
  whole_.resize(1);
  for (uint32_t q = 0; q < kBatch; ++q) whole_[0].query_indices.push_back(q);
}

std::optional<WireLanes::Future> WireLanes::Submit(size_t lane,
                                                   const Workload& workload) {
  auto submitted = clients_[lane]->SubmitScore("perfbench", workload, whole_);
  if (!submitted.ok()) return std::nullopt;
  return std::move(*submitted);
}

std::pair<bool, double> WireLanes::Resolve(
    wmp::Result<wmp::net::ScoreResponse> response) {
  if (!response.ok() || response->size() != 1 || !response->ok[0]) {
    return {false, 0.0};
  }
  return {true, response->predictions[0]};
}

}  // namespace perfbench
