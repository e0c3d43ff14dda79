#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The benchmark's workloads (see README.md for why each exists):
///
///   online_cold       open-loop admission traffic over a 93 000-query
///                     TPC-DS pool larger than both server caches
///   online_recurring  the same transport and ladder over a Zipf-skewed
///                     pool that fits both caches, with publishes and
///                     rollbacks of a second model under load
///   offline_retrain   wmpctl train (elbow-tuned k) on a text log, then a
///                     held-out text log streamed through QueryLogReader
///                     and scored over the wire

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;     ///< per-layer run instead of end-to-end
  std::string wmpctl;     ///< path of the wmpctl binary under test
  std::string workdir;    ///< scratch directory inside the checkout
  std::string trace_path; ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs `options.workload`. Throws std::runtime_error on a set-up failure
/// (the run then has no result).
RunResult RunWorkload(const Options& options);

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
