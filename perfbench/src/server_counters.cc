#include "server_counters.h"

#include <cstdlib>
#include <stdexcept>

#include "core/learned_wmp.h"
#include "net/wire_client.h"

namespace perfbench {

Counters ReadServerCounters(wmp::net::WireClient* client) {
  auto stats = client->Stats();
  if (!stats.ok()) {
    throw std::runtime_error("stats: " + stats.status().ToString());
  }
  const wmp::engine::ServiceStats& s = stats->service;
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"frames", d(stats->server.frames_served)},
      {"completed", d(s.completed)},
      {"failed", d(s.failed)},
      {"flushes", d(s.flushes)},
      {"flushes_adaptive", d(s.flushes_adaptive)},
      {"hist_hits", d(s.cache_hits)},
      {"hist_misses", d(s.cache_misses)},
      {"tmpl_hits", d(s.template_cache_hits)},
      {"tmpl_misses", d(s.template_cache_misses)},
      {"entries_warmed", d(s.template_entries_warmed)},
      {"max_queue_depth", d(s.max_queue_depth)},
  };
}

Counters ReadServeShutdownSummary(const std::string& serve_log_text) {
  // "  reactor: N pipelined frames, M backpressure pauses, ..."
  Counters out;
  const std::string key = " backpressure pauses";
  const size_t at = serve_log_text.find(key);
  if (at == std::string::npos) return out;
  size_t begin = at;
  while (begin > 0 && serve_log_text[begin - 1] >= '0' &&
         serve_log_text[begin - 1] <= '9') {
    --begin;
  }
  if (begin == at) return out;
  out["backpressure_pauses"] =
      std::strtod(serve_log_text.substr(begin, at - begin).c_str(), nullptr);
  return out;
}

Counters ReadAssignCounters(const wmp::core::LearnedWmpModel& model) {
  const auto a = model.templates().assign_stats();
  return {
      {"rows", static_cast<double>(a.rows)},
      {"skipped", static_cast<double>(a.bound_skips + a.early_exits)},
      {"full_distances", static_cast<double>(a.full_distances)},
  };
}

Counters ReadTrainPhases(const wmp::core::LearnedWmpModel& model) {
  const auto& t = model.train_stats();
  return {
      {"templates_s", t.template_ms / 1e3},
      {"histograms_s", t.histogram_ms / 1e3},
      {"regressor_s", t.regressor_ms / 1e3},
  };
}

}  // namespace perfbench
