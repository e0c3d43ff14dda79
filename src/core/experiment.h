#ifndef WMP_CORE_EXPERIMENT_H_
#define WMP_CORE_EXPERIMENT_H_

/// \file experiment.h
/// Shared experiment harness behind every `bench/fig*` binary: builds the
/// dataset, performs the 80/20 split, trains SingleWMP and LearnedWMP
/// variants across all model families, and collects the metrics the paper
/// plots — RMSE (Fig. 4), residual distributions (Fig. 5), training time
/// (Fig. 6), inference time (Fig. 7), and model size (Fig. 8).

#include <string>
#include <vector>

#include "core/learned_wmp.h"
#include "core/single_wmp.h"
#include "ml/metrics.h"
#include "workloads/dataset.h"

namespace wmp::core {

/// Per-benchmark default template count k, as the paper's elbow tuning
/// lands: large for TPC-DS (best at 100, Fig. 10a), moderate for JOB and
/// TPC-C (optimum 20-40, Fig. 10b/c).
int DefaultNumTemplates(workloads::Benchmark benchmark);

/// Experiment configuration shared by the figure harnesses.
struct ExperimentConfig {
  workloads::Benchmark benchmark = workloads::Benchmark::kTpcds;
  /// Fraction of the paper's query count to generate (1.0 = paper scale).
  double scale = 1.0;
  int batch_size = 10;
  int num_templates = 0;  ///< 0 = DefaultNumTemplates(benchmark)
  WorkloadLabel label = WorkloadLabel::kSum;
  TemplateMethod template_method = TemplateMethod::kPlanKMeans;
  double test_fraction = 0.2;
  uint64_t seed = 42;
};

/// Metrics of one model on the test workloads.
struct ModelReport {
  std::string name;  ///< e.g. "LearnedWMP-XGB", "SingleWMP-DBMS"
  double rmse = 0.0;
  double mape = 0.0;
  ml::ResidualSummary residuals;
  double train_ms = 0.0;            ///< regressor fit time (Fig. 6)
  /// Fit-phase breakdown (tree families: bin / grow / round-update; zeros
  /// elsewhere) — the machine-readable detail behind fig6's --json output.
  ml::FitTiming fit_timing;
  double infer_us_per_workload = 0.0;  ///< Fig. 7
  size_t model_bytes = 0;           ///< serialized regressor (Fig. 8)
  std::vector<double> predictions;  ///< per test workload
};

/// Everything the figure harnesses need.
struct ExperimentResult {
  std::string benchmark;
  size_t num_queries = 0;
  size_t num_train_queries = 0;
  size_t num_test_workloads = 0;
  int num_templates = 0;
  double template_learning_ms = 0.0;  ///< phase-1 cost, reported once
  std::vector<double> test_labels;    ///< actual y per test workload
  std::vector<ModelReport> reports;
};

/// \brief Prepared experiment state, reusable across model sweeps (the
/// dataset and split are built once; individual benches then train the
/// models they need).
struct ExperimentData {
  workloads::Dataset dataset;
  std::vector<uint32_t> train_indices;
  std::vector<uint32_t> test_indices;
  std::vector<WorkloadBatch> test_batches;
  std::vector<double> test_labels;
  ExperimentConfig config;
};

/// Builds the dataset and the query-level 80/20 split plus test workloads.
Result<ExperimentData> PrepareExperiment(const ExperimentConfig& config);

/// Trains + evaluates one LearnedWMP variant on prepared data. If
/// `template_ms_out` is non-null it receives the phase-1 (template
/// learning) wall time, which is shared across the Learned variants. A
/// shared `bin_cache` lets the tree families (DT/RF/GBT) bin the identical
/// histogram design matrix once across the sweep.
Result<ModelReport> EvaluateLearnedWmp(const ExperimentData& data,
                                       ml::RegressorKind kind,
                                       double* template_ms_out = nullptr,
                                       ml::BinnedDatasetCache* bin_cache = nullptr);

/// Trains + evaluates one SingleWMP variant on prepared data; `bin_cache`
/// as in EvaluateLearnedWmp (the per-query scaled design is also identical
/// across the tree families).
Result<ModelReport> EvaluateSingleWmp(const ExperimentData& data,
                                      ml::RegressorKind kind,
                                      ml::BinnedDatasetCache* bin_cache = nullptr);

/// Evaluates the SingleWMP-DBMS baseline (no training).
ModelReport EvaluateDbmsBaseline(const ExperimentData& data);

/// \brief Full sweep: DBMS baseline + Single/Learned across all five model
/// families — the data behind Figs. 4-8.
Result<ExperimentResult> RunCoreExperiment(const ExperimentConfig& config);

/// Same sweep over already-prepared data, for harnesses that reuse the
/// dataset for further measurements (e.g. fig7's batch-throughput sweep) —
/// the dataset and split are built exactly once.
Result<ExperimentResult> RunCoreExperiment(const ExperimentData& data);

}  // namespace wmp::core

#endif  // WMP_CORE_EXPERIMENT_H_
