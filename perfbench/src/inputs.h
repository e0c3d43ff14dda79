#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

/// \file inputs.h
/// Seeded inputs: TPC-DS query logs, workload tables and reference
/// predictions. The same seed always gives the same inputs; the program
/// under test only ever sees what is generated here (log files, request
/// frames, a published artifact).

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/learned_wmp.h"
#include "trace.h"
#include "workloads/query_record.h"

namespace perfbench {

using wmp::workloads::QueryRecord;
/// The records of one request, carrying only the fields the wire carries.
using Workload = std::vector<QueryRecord>;

/// Workload size s: queries per workload (the paper's batch size).
inline constexpr size_t kBatch = 10;

/// Deterministic random stream (std::mt19937_64 with explicit sampling, so
/// the draws do not depend on the standard library's distributions).
class Rand {
 public:
  explicit Rand(uint64_t seed) : engine_(seed) {}
  double Uniform() {  // [0, 1)
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  size_t Below(size_t n) {
    return static_cast<size_t>(Uniform() * static_cast<double>(n));
  }
  /// Exponential gap with the given mean.
  double Exponential(double mean);

 private:
  std::mt19937_64 engine_;
};

/// Zipf(n, theta) over ranks 0..n-1 (rank 0 most frequent).
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rand* rand) const;

 private:
  std::vector<double> cdf_;
};

/// TPC-DS query log of `n` queries, generated in a few parallel slices
/// whose seeds derive from `seed`.
std::vector<QueryRecord> GenerateTpcds(size_t n, uint64_t seed);

/// Copy of the fields a score frame carries (SQL text, plan features,
/// labels, family, fingerprint); no AST or plan tree.
QueryRecord WireCopy(const QueryRecord& record);

/// Consecutive groups of kBatch records as workloads (a trailing partial
/// group is dropped).
std::vector<Workload> GroupConsecutive(const std::vector<QueryRecord>& records);

/// Workload built from arbitrary members of `pool`.
Workload Gather(const std::vector<QueryRecord>& pool,
                const std::vector<uint32_t>& members);

/// Writes `records` in the text query-log format. Throws on failure.
void WriteLog(const std::vector<QueryRecord>& records,
              const std::string& path);

/// Loads a model artifact. Throws on failure.
std::shared_ptr<const wmp::core::LearnedWmpModel> LoadModel(
    const std::string& path);

/// In-process predictions of `model` for `workloads`, through
/// engine::BatchScorer::ScoreWorkloads in flushes of `flush_size`
/// workloads, one "engine.score" span per flush under `tracer` (none when
/// null). On the artifact the server serves these are the references its
/// responses must equal bitwise.
std::vector<double> ReferencePredictions(
    const std::shared_ptr<const wmp::core::LearnedWmpModel>& model,
    const std::vector<const Workload*>& workloads, size_t flush_size,
    Tracer* tracer);

/// The same over every workload of `table`, in flushes of 512.
std::vector<double> ReferencePredictions(
    const std::shared_ptr<const wmp::core::LearnedWmpModel>& model,
    const std::vector<Workload>& table);

/// Workload label (observed peak memory, MB) under `model`'s label rule.
std::vector<double> Labels(const wmp::core::LearnedWmpModel& model,
                           const std::vector<Workload>& table);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
