// Unit and integration tests for the LearnedWMP core: template learning,
// histograms, workload batching, the LearnedWMP/SingleWMP models, and the
// experiment harness.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/experiment.h"
#include "core/featurizer.h"
#include "core/histogram.h"
#include "core/learned_wmp.h"
#include "core/single_wmp.h"
#include "core/template_learner.h"
#include "core/workload.h"
#include "ml/metrics.h"
#include "ml/search.h"
#include "plan/features.h"
#include "workloads/log_io.h"

namespace wmp::core {
namespace {

// Shared small dataset (TPC-C: cheapest to build) for the core tests.
class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 600;
    opt.seed = 5;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok());
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ = new std::vector<uint32_t>(AllIndices(dataset_->records.size()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete indices_;
    dataset_ = nullptr;
    indices_ = nullptr;
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
};

workloads::Dataset* CoreTest::dataset_ = nullptr;
std::vector<uint32_t>* CoreTest::indices_ = nullptr;

// ---------- featurizer ----------

TEST_F(CoreTest, FeatureMatrixSelectsRows) {
  ml::Matrix x = PlanFeatureMatrix(dataset_->records, {0, 5, 7});
  EXPECT_EQ(x.rows(), 3u);
  EXPECT_EQ(x.cols(), plan::kPlanFeatureDim);
  EXPECT_EQ(x.RowVec(1), dataset_->records[5].plan_features);
  auto y = ActualMemoryVector(dataset_->records, {7});
  EXPECT_DOUBLE_EQ(y[0], dataset_->records[7].actual_memory_mb);
  auto d = DbmsEstimateVector(dataset_->records, {7});
  EXPECT_DOUBLE_EQ(d[0], dataset_->records[7].dbms_estimate_mb);
}

// ---------- histogram ----------

TEST(HistogramTest, CountsAndMass) {
  auto h = BuildHistogram({0, 1, 1, 3, 0, 0}, 4).value();
  EXPECT_EQ(h, (std::vector<double>{3, 2, 0, 1}));
  EXPECT_DOUBLE_EQ(HistogramMass(h), 6.0);  // paper eq. 4: sum == |Q|
}

TEST(HistogramTest, RejectsBadIds) {
  EXPECT_TRUE(BuildHistogram({4}, 4).status().IsOutOfRange());
  EXPECT_TRUE(BuildHistogram({-1}, 4).status().IsOutOfRange());
  EXPECT_TRUE(BuildHistogram({}, 0).status().IsInvalidArgument());
}

// ---------- workload batching ----------

TEST_F(CoreTest, BatchesAreFixedSizeAndDisjoint) {
  WorkloadSetOptions opt;
  opt.batch_size = 10;
  auto batches = BuildWorkloads(dataset_->records, *indices_, opt);
  EXPECT_EQ(batches.size(), 60u);
  std::set<uint32_t> seen;
  for (const auto& b : batches) {
    EXPECT_EQ(b.query_indices.size(), 10u);
    for (uint32_t i : b.query_indices) EXPECT_TRUE(seen.insert(i).second);
  }
}

TEST_F(CoreTest, IncompleteRemainderDropped) {
  WorkloadSetOptions opt;
  opt.batch_size = 7;
  auto batches = BuildWorkloads(dataset_->records, *indices_, opt);
  EXPECT_EQ(batches.size(), 600u / 7u);
}

TEST_F(CoreTest, SumLabelIsSumOfMemberMemory) {
  WorkloadSetOptions opt;
  opt.batch_size = 5;
  opt.shuffle = false;
  auto batches = BuildWorkloads(dataset_->records, *indices_, opt);
  double expected = 0;
  for (uint32_t i : batches[0].query_indices) {
    expected += dataset_->records[i].actual_memory_mb;
  }
  EXPECT_DOUBLE_EQ(batches[0].label_mb, expected);
}

TEST_F(CoreTest, MaxLabelOption) {
  WorkloadSetOptions opt;
  opt.batch_size = 5;
  opt.shuffle = false;
  opt.label = WorkloadLabel::kMax;
  auto batches = BuildWorkloads(dataset_->records, *indices_, opt);
  double expected = 0;
  for (uint32_t i : batches[0].query_indices) {
    expected = std::max(expected, dataset_->records[i].actual_memory_mb);
  }
  EXPECT_DOUBLE_EQ(batches[0].label_mb, expected);
  // Max label is never above the sum label.
  WorkloadSetOptions sum_opt = opt;
  sum_opt.label = WorkloadLabel::kSum;
  auto sum_batches = BuildWorkloads(dataset_->records, *indices_, sum_opt);
  EXPECT_LE(batches[0].label_mb, sum_batches[0].label_mb);
}

// ---------- template learning ----------

TEST_F(CoreTest, PlanKMeansAssignsWithinRange) {
  TemplateLearnerOptions opt;
  opt.num_templates = 8;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_templates(), 8);
  std::set<int> used;
  for (uint32_t i : *indices_) {
    int id = model->Assign(dataset_->records[i]).value();
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 8);
    used.insert(id);
  }
  EXPECT_GE(used.size(), 4u);  // clustering actually separates queries
}

TEST_F(CoreTest, TemplatesGroupSimilarMemoryQueries) {
  // The paper's core intuition: queries in a template have similar memory.
  // Variance of memory within templates must be well below the global
  // variance.
  TemplateLearnerOptions opt;
  opt.num_templates = 12;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  std::vector<double> sums(12, 0), sqs(12, 0), counts(12, 0);
  double gsum = 0, gsq = 0;
  for (uint32_t i : *indices_) {
    const double m = dataset_->records[i].actual_memory_mb;
    const int id = model->Assign(dataset_->records[i]).value();
    sums[static_cast<size_t>(id)] += m;
    sqs[static_cast<size_t>(id)] += m * m;
    counts[static_cast<size_t>(id)] += 1;
    gsum += m;
    gsq += m * m;
  }
  const double n = static_cast<double>(indices_->size());
  const double global_var = gsq / n - (gsum / n) * (gsum / n);
  double within = 0;
  for (size_t t = 0; t < 12; ++t) {
    if (counts[t] < 1) continue;
    within += sqs[t] - sums[t] * sums[t] / counts[t];
  }
  within /= n;
  EXPECT_LT(within, 0.5 * global_var);
}

TEST_F(CoreTest, RuleBasedUsesExpertRules) {
  TemplateLearnerOptions opt;
  opt.method = TemplateMethod::kRuleBased;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  // 12 TPC-C rules + catch-all.
  EXPECT_EQ(model->num_templates(), 13);
  // Rule-based ids should agree with generator families for most queries.
  size_t agree = 0;
  for (uint32_t i : *indices_) {
    if (model->Assign(dataset_->records[i]).value() ==
        dataset_->records[i].family_id) {
      ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(indices_->size()),
            0.8);
}

TEST_F(CoreTest, AllTemplateMethodsLearnAndAssign) {
  for (TemplateMethod method : AllTemplateMethods()) {
    TemplateLearnerOptions opt;
    opt.method = method;
    opt.num_templates = 6;
    opt.dbscan.eps = 2.0;
    opt.dbscan.min_points = 5;
    auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
    ASSERT_TRUE(model.ok()) << TemplateMethodName(method) << ": "
                            << model.status().ToString();
    EXPECT_GE(model->num_templates(), 1) << TemplateMethodName(method);
    const int id = model->Assign(dataset_->records[0]).value();
    EXPECT_GE(id, 0);
    EXPECT_LT(id, model->num_templates());
  }
}

TEST_F(CoreTest, TemplateLearnErrors) {
  TemplateLearnerOptions opt;
  auto no_rows = TemplateModel::Learn(dataset_->records, {},
                                      *dataset_->generator, opt);
  EXPECT_TRUE(no_rows.status().IsInvalidArgument());
  opt.num_templates = 0;
  auto bad_k = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  EXPECT_TRUE(bad_k.status().IsInvalidArgument());
  TemplateModel unlearned;
  EXPECT_TRUE(
      unlearned.Assign(dataset_->records[0]).status().IsFailedPrecondition());
}

// ---------- LearnedWMP / SingleWMP ----------

LearnedWmpOptions SmallLearnedOptions() {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 10;
  opt.batch_size = 10;
  opt.regressor = ml::RegressorKind::kGbt;
  return opt;
}

TEST_F(CoreTest, LearnedWmpTrainPredictRoundTrip) {
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator,
                                      SmallLearnedOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->train_stats().num_workloads, 60u);

  std::vector<uint32_t> batch(indices_->begin(), indices_->begin() + 10);
  auto pred = model->PredictWorkload(dataset_->records, batch);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(*pred, 0.0);
  EXPECT_TRUE(std::isfinite(*pred));

  // Histogram path equals end-to-end path (IN1-IN5 decomposition).
  auto hist = model->BinWorkload(dataset_->records, batch).value();
  EXPECT_DOUBLE_EQ(HistogramMass(hist), 10.0);  // eq. 8: sums to s
  EXPECT_DOUBLE_EQ(model->PredictFromHistogram(hist).value(), *pred);
}

TEST_F(CoreTest, LearnedWmpBeatsDbmsBaseline) {
  ml::IndexSplit split =
      ml::TrainTestSplitIndices(dataset_->records.size(), 0.2, 3);
  auto model = LearnedWmpModel::Train(dataset_->records, split.train,
                                      *dataset_->generator,
                                      SmallLearnedOptions());
  ASSERT_TRUE(model.ok());
  WorkloadSetOptions wopt;
  wopt.batch_size = 10;
  auto batches = BuildWorkloads(dataset_->records, split.test, wopt);
  std::vector<double> labels;
  for (const auto& b : batches) labels.push_back(b.label_mb);
  auto learned = model->PredictWorkloads(dataset_->records, batches).value();
  auto dbms = DbmsWorkloadEstimates(dataset_->records, batches);
  EXPECT_LT(ml::Rmse(labels, learned), ml::Rmse(labels, dbms));
}

TEST_F(CoreTest, LearnedWmpErrorChecks) {
  auto too_few = LearnedWmpModel::Train(dataset_->records, {0, 1, 2},
                                        *dataset_->generator,
                                        SmallLearnedOptions());
  EXPECT_TRUE(too_few.status().IsInvalidArgument());
  LearnedWmpModel untrained;
  EXPECT_TRUE(untrained.PredictFromHistogram({1.0})
                  .status()
                  .IsFailedPrecondition());
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator,
                                      SmallLearnedOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->PredictFromHistogram({1.0, 2.0})
                  .status()
                  .IsInvalidArgument());  // wrong length
}

// A log whose plan carries `out=nan` parses (NaN is a number), but
// template learning must refuse it with a clear error instead of keeping
// no k-means restart and reporting an unlearned model later.
TEST_F(CoreTest, LearnedWmpRejectsNonFiniteLogCardinality) {
  std::string text = workloads::SerializeQueryLog(dataset_->records);
  const size_t scan = text.find("TBSCAN(");
  ASSERT_NE(scan, std::string::npos);
  const size_t out = text.find(" out=", scan);
  const size_t end = text.find(' ', out + 1);
  ASSERT_NE(end, std::string::npos);
  text.replace(out, end - out, " out=nan");
  auto records = workloads::ParseQueryLog(text);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  const std::vector<uint32_t> indices = AllIndices(records->size());

  auto model = LearnedWmpModel::Train(*records, indices,
                                      SmallLearnedOptions());
  ASSERT_TRUE(model.status().IsInvalidArgument()) << model.status().ToString();
  EXPECT_NE(model.status().message().find("non-finite"), std::string::npos)
      << model.status().ToString();
  auto k = ChooseNumTemplates(*records, indices, {4, 8, 12}, 1);
  EXPECT_TRUE(k.status().IsInvalidArgument()) << k.status().ToString();
}

TEST_F(CoreTest, SingleWmpSumsPerQueryEstimates) {
  SingleWmpOptions opt;
  opt.regressor = ml::RegressorKind::kDecisionTree;
  auto model = SingleWmpModel::Train(dataset_->records, *indices_, opt);
  ASSERT_TRUE(model.ok());
  std::vector<uint32_t> batch{0, 1, 2};
  double sum = 0;
  for (uint32_t i : batch) {
    sum += model->PredictQuery(dataset_->records[i]).value();
  }
  EXPECT_NEAR(model->PredictWorkload(dataset_->records, batch).value(), sum,
              1e-9);
}

TEST_F(CoreTest, SingleWmpPredictsQueryMemoryWell) {
  ml::IndexSplit split =
      ml::TrainTestSplitIndices(dataset_->records.size(), 0.25, 7);
  SingleWmpOptions opt;
  opt.regressor = ml::RegressorKind::kGbt;
  auto model = SingleWmpModel::Train(dataset_->records, split.train, opt);
  ASSERT_TRUE(model.ok());
  std::vector<double> y, yhat;
  for (uint32_t i : split.test) {
    y.push_back(dataset_->records[i].actual_memory_mb);
    yhat.push_back(model->PredictQuery(dataset_->records[i]).value());
  }
  // Clearly better than predicting the mean. (TPC-C point lookups leave
  // little per-query signal in estimated plan features — equality
  // selectivities are literal-independent — so the margin is modest.)
  double mean = 0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  std::vector<double> mean_pred(y.size(), mean);
  EXPECT_LT(ml::Rmse(y, yhat), 0.8 * ml::Rmse(y, mean_pred));
}

TEST_F(CoreTest, DbmsBaselineIsDeterministicSum) {
  std::vector<uint32_t> batch{3, 4};
  const double expected = dataset_->records[3].dbms_estimate_mb +
                          dataset_->records[4].dbms_estimate_mb;
  EXPECT_DOUBLE_EQ(DbmsWorkloadEstimate(dataset_->records, batch), expected);
}

// ---------- experiment harness ----------

TEST(ExperimentTest, DefaultTemplateCountsFollowFig10) {
  EXPECT_EQ(DefaultNumTemplates(workloads::Benchmark::kTpcds), 100);
  EXPECT_GE(DefaultNumTemplates(workloads::Benchmark::kJob), 20);
  EXPECT_LE(DefaultNumTemplates(workloads::Benchmark::kJob), 40);
  EXPECT_LE(DefaultNumTemplates(workloads::Benchmark::kTpcc), 40);
}

TEST(ExperimentTest, PrepareSplitsQueriesAndBuildsTestWorkloads) {
  ExperimentConfig cfg;
  cfg.benchmark = workloads::Benchmark::kTpcc;
  cfg.scale = 0.2;  // ~790 queries
  auto data = PrepareExperiment(cfg);
  ASSERT_TRUE(data.ok());
  EXPECT_NEAR(static_cast<double>(data->test_indices.size()) /
                  static_cast<double>(data->dataset.records.size()),
              0.2, 0.01);
  EXPECT_EQ(data->test_batches.size(), data->test_indices.size() / 10);
  EXPECT_EQ(data->test_labels.size(), data->test_batches.size());
}

TEST(ExperimentTest, CoreExperimentProducesAllElevenModels) {
  ExperimentConfig cfg;
  cfg.benchmark = workloads::Benchmark::kTpcc;
  cfg.scale = 0.15;
  cfg.num_templates = 8;
  auto result = RunCoreExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->reports.size(), 11u);  // DBMS + 5 single + 5 learned
  EXPECT_EQ(result->reports[0].name, "SingleWMP-DBMS");
  for (const ModelReport& r : result->reports) {
    EXPECT_GT(r.rmse, 0.0) << r.name;
    EXPECT_TRUE(std::isfinite(r.mape)) << r.name;
    EXPECT_EQ(r.predictions.size(), result->num_test_workloads) << r.name;
    if (r.name != "SingleWMP-DBMS") {
      EXPECT_GT(r.model_bytes, 0u) << r.name;
      EXPECT_GT(r.infer_us_per_workload, 0.0) << r.name;
    }
  }
  EXPECT_GT(result->template_learning_ms, 0.0);
}

}  // namespace
}  // namespace wmp::core
