#ifndef PERFBENCH_SERVER_COUNTERS_H_
#define PERFBENCH_SERVER_COUNTERS_H_

/// \file server_counters.h
/// The one adapter between the benchmark and the program's counter
/// structs. Everything the per-layer metrics read from the program's own
/// bookkeeping (the Stats frame of a live server, the summary `wmpctl
/// serve` prints on shutdown, a model's assignment and training counters)
/// is flattened here into name -> value maps, so a change to how the
/// program exposes counters is a change to this file alone.

#include <map>
#include <string>

namespace wmp::core {
class LearnedWmpModel;
}
namespace wmp::net {
class WireClient;
}

namespace perfbench {

using Counters = std::map<std::string, double>;

/// Live server counters over the wire (WireClient::Stats). Keys:
/// frames, completed, failed, flushes, flushes_adaptive,
/// hist_hits, hist_misses, tmpl_hits, tmpl_misses, entries_warmed,
/// max_queue_depth. Throws std::runtime_error when the call fails.
Counters ReadServerCounters(wmp::net::WireClient* client);

/// Counters only printed by `wmpctl serve` when it shuts down, parsed from
/// its log. Keys: backpressure_pauses (absent when the line is missing).
Counters ReadServeShutdownSummary(const std::string& serve_log_text);

/// Cumulative pruned-assignment counters of `model`. Keys: rows,
/// skipped (bound skips + early exits), full_distances.
Counters ReadAssignCounters(const wmp::core::LearnedWmpModel& model);

/// Training phase wall times of an in-process trained `model`, seconds.
/// Keys: templates_s, histograms_s, regressor_s.
Counters ReadTrainPhases(const wmp::core::LearnedWmpModel& model);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_COUNTERS_H_
