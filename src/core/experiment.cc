#include "core/experiment.h"

#include <cmath>

#include "ml/binned.h"
#include "ml/search.h"
#include "util/strings.h"
#include "util/timer.h"

namespace wmp::core {

int DefaultNumTemplates(workloads::Benchmark benchmark) {
  switch (benchmark) {
    case workloads::Benchmark::kTpcds:
      return 100;
    case workloads::Benchmark::kJob:
      return 40;
    case workloads::Benchmark::kTpcc:
      return 20;
  }
  return 40;
}

namespace {

ModelReport ScorePredictions(std::string name,
                             const std::vector<double>& labels,
                             std::vector<double> predictions) {
  ModelReport report;
  report.name = std::move(name);
  report.rmse = ml::Rmse(labels, predictions);
  report.mape = ml::Mape(labels, predictions);
  report.residuals = ml::SummarizeResiduals(ml::Residuals(labels, predictions));
  report.predictions = std::move(predictions);
  return report;
}

}  // namespace

Result<ExperimentData> PrepareExperiment(const ExperimentConfig& config) {
  ExperimentData data;
  data.config = config;
  if (data.config.num_templates <= 0) {
    data.config.num_templates = DefaultNumTemplates(config.benchmark);
  }

  workloads::DatasetOptions dopt;
  dopt.seed = config.seed;
  dopt.num_queries = static_cast<size_t>(
      std::llround(config.scale *
                   static_cast<double>(workloads::PaperQueryCount(config.benchmark))));
  WMP_ASSIGN_OR_RETURN(data.dataset,
                       workloads::BuildDataset(config.benchmark, dopt));

  ml::IndexSplit split = ml::TrainTestSplitIndices(
      data.dataset.records.size(), config.test_fraction, config.seed);
  data.train_indices = std::move(split.train);
  data.test_indices = std::move(split.test);

  WorkloadSetOptions wopt;
  wopt.batch_size = config.batch_size;
  wopt.label = config.label;
  wopt.seed = config.seed + 1;
  data.test_batches =
      BuildWorkloads(data.dataset.records, data.test_indices, wopt);
  data.test_labels.reserve(data.test_batches.size());
  for (const WorkloadBatch& b : data.test_batches) {
    data.test_labels.push_back(b.label_mb);
  }
  if (data.test_batches.empty()) {
    return Status::InvalidArgument("test split produced no full workload");
  }
  return data;
}

Result<ModelReport> EvaluateLearnedWmp(const ExperimentData& data,
                                       ml::RegressorKind kind,
                                       double* template_ms_out,
                                       ml::BinnedDatasetCache* bin_cache) {
  LearnedWmpOptions opt;
  opt.templates.method = data.config.template_method;
  opt.templates.num_templates = data.config.num_templates;
  opt.batch_size = data.config.batch_size;
  opt.label = data.config.label;
  opt.regressor = kind;
  opt.seed = data.config.seed;
  WMP_ASSIGN_OR_RETURN(
      LearnedWmpModel model,
      LearnedWmpModel::Train(data.dataset.records, data.train_indices,
                             *data.dataset.generator, opt, bin_cache));

  Stopwatch sw;
  WMP_ASSIGN_OR_RETURN(
      std::vector<double> predictions,
      model.PredictWorkloads(data.dataset.records, data.test_batches));
  const double infer_us = sw.ElapsedMicros();

  ModelReport report = ScorePredictions(
      StrFormat("LearnedWMP-%s", ml::RegressorKindName(kind)),
      data.test_labels, std::move(predictions));
  report.train_ms = model.train_stats().regressor_ms;
  report.fit_timing = model.train_stats().regressor_timing;
  report.infer_us_per_workload =
      infer_us / static_cast<double>(data.test_batches.size());
  WMP_ASSIGN_OR_RETURN(report.model_bytes, model.RegressorBytes());
  if (template_ms_out != nullptr) {
    *template_ms_out = model.train_stats().template_ms;
  }
  return report;
}

Result<ModelReport> EvaluateSingleWmp(const ExperimentData& data,
                                      ml::RegressorKind kind,
                                      ml::BinnedDatasetCache* bin_cache) {
  SingleWmpOptions opt;
  opt.regressor = kind;
  opt.seed = data.config.seed;
  WMP_ASSIGN_OR_RETURN(SingleWmpModel model,
                       SingleWmpModel::Train(data.dataset.records,
                                             data.train_indices, opt,
                                             bin_cache));

  Stopwatch sw;
  WMP_ASSIGN_OR_RETURN(
      std::vector<double> predictions,
      model.PredictWorkloads(data.dataset.records, data.test_batches));
  const double infer_us = sw.ElapsedMicros();

  ModelReport report = ScorePredictions(
      StrFormat("SingleWMP-%s", ml::RegressorKindName(kind)),
      data.test_labels, std::move(predictions));
  report.train_ms = model.train_ms();
  report.fit_timing = model.fit_timing();
  report.infer_us_per_workload =
      infer_us / static_cast<double>(data.test_batches.size());
  WMP_ASSIGN_OR_RETURN(report.model_bytes, model.RegressorBytes());
  return report;
}

ModelReport EvaluateDbmsBaseline(const ExperimentData& data) {
  std::vector<double> predictions =
      DbmsWorkloadEstimates(data.dataset.records, data.test_batches);
  return ScorePredictions("SingleWMP-DBMS", data.test_labels,
                          std::move(predictions));
}

Result<ExperimentResult> RunCoreExperiment(const ExperimentConfig& config) {
  WMP_ASSIGN_OR_RETURN(ExperimentData data, PrepareExperiment(config));
  return RunCoreExperiment(data);
}

Result<ExperimentResult> RunCoreExperiment(const ExperimentData& data) {
  ExperimentResult result;
  result.benchmark = data.dataset.benchmark_name;
  result.num_queries = data.dataset.records.size();
  result.num_train_queries = data.train_indices.size();
  result.num_test_workloads = data.test_batches.size();
  result.num_templates = data.config.num_templates;
  result.test_labels = data.test_labels;

  result.reports.push_back(EvaluateDbmsBaseline(data));
  // The DT/RF/GBT candidates inside each sweep train on an identical design
  // matrix (same seed, same featurization), so one shared cache per sweep
  // bins it once instead of once per tree family.
  ml::BinnedDatasetCache single_bins;
  for (ml::RegressorKind kind : ml::AllRegressorKinds()) {
    WMP_ASSIGN_OR_RETURN(ModelReport single,
                         EvaluateSingleWmp(data, kind, &single_bins));
    result.reports.push_back(std::move(single));
  }
  ml::BinnedDatasetCache learned_bins;
  bool first_learned = true;
  for (ml::RegressorKind kind : ml::AllRegressorKinds()) {
    // Phase-1 cost is shared across the Learned variants; report it once.
    double template_ms = 0.0;
    WMP_ASSIGN_OR_RETURN(
        ModelReport learned,
        EvaluateLearnedWmp(data, kind, first_learned ? &template_ms : nullptr,
                           &learned_bins));
    if (first_learned) {
      result.template_learning_ms = template_ms;
      first_learned = false;
    }
    result.reports.push_back(std::move(learned));
  }
  return result;
}

}  // namespace wmp::core
