// Tests for the deployment features: model persistence (the paper's
// "ship the model into the DBMS product" lifecycle), variable-length
// workloads, and the elbow-method template tuner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "core/template_learner.h"
#include "workloads/dataset.h"

namespace wmp::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 500;
    opt.seed = 21;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok());
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ = new std::vector<uint32_t>(AllIndices(dataset_->records.size()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete indices_;
  }

  static LearnedWmpModel TrainSmall(ml::RegressorKind kind,
                                    TemplateMethod method =
                                        TemplateMethod::kPlanKMeans) {
    LearnedWmpOptions opt;
    opt.templates.method = method;
    opt.templates.num_templates = 8;
    opt.regressor = kind;
    auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                        *dataset_->generator, opt);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
};

workloads::Dataset* PersistenceTest::dataset_ = nullptr;
std::vector<uint32_t>* PersistenceTest::indices_ = nullptr;

// Offset of the first little-endian occurrence of `tag` in `bytes`.
size_t FindTag(const std::string& bytes, uint32_t tag) {
  char le[sizeof(tag)];
  std::memcpy(le, &tag, sizeof(tag));
  const size_t pos = bytes.find(std::string_view(le, sizeof(tag)));
  EXPECT_NE(pos, std::string::npos);
  return pos;
}

uint64_t GetU64(const std::string& bytes, size_t pos) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

void PutU64(std::string* bytes, size_t pos, uint64_t v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(v));
}

// Template-model stream after its "WMPT" tag: method u8, k i64, log u8,
// then the method body.
constexpr uint32_t kTemplateTag = 0x574D5054;
constexpr size_t kTemplateKOffset = 4 + 1;
constexpr size_t kTemplateBodyOffset = 4 + 1 + 8 + 1;

// ---------- TemplateModel persistence ----------

TEST_F(PersistenceTest, PlanKMeansTemplatesRoundTrip) {
  TemplateLearnerOptions opt;
  opt.num_templates = 8;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  ASSERT_TRUE(model->Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = TemplateModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_templates(), model->num_templates());
  for (uint32_t i : *indices_) {
    EXPECT_EQ(restored->Assign(dataset_->records[i]).value(),
              model->Assign(dataset_->records[i]).value());
  }
}

TEST_F(PersistenceTest, RuleBasedTemplatesRoundTrip) {
  TemplateLearnerOptions opt;
  opt.method = TemplateMethod::kRuleBased;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  ASSERT_TRUE(model->Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = TemplateModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_templates(), model->num_templates());
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(restored->Assign(dataset_->records[i]).value(),
              model->Assign(dataset_->records[i]).value());
  }
}

TEST_F(PersistenceTest, TextMethodsAreNotSerializable) {
  TemplateLearnerOptions opt;
  opt.method = TemplateMethod::kBagOfWords;
  opt.num_templates = 4;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  EXPECT_EQ(model->Serialize(&w).code(), StatusCode::kNotImplemented);
}

TEST_F(PersistenceTest, UnlearnedTemplateModelRefusesSerialize) {
  TemplateModel model;
  BinaryWriter w;
  EXPECT_TRUE(model.Serialize(&w).IsFailedPrecondition());
}

// ---------- LearnedWmpModel persistence ----------

class LearnedPersistence
    : public PersistenceTest,
      public ::testing::WithParamInterface<ml::RegressorKind> {};

TEST_P(LearnedPersistence, FullModelRoundTripsThroughBytes) {
  LearnedWmpModel model = TrainSmall(GetParam());
  BinaryWriter w;
  ASSERT_TRUE(model.Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = LearnedWmpModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Identical predictions on several workloads.
  for (uint32_t start = 0; start + 10 <= 100; start += 10) {
    std::vector<uint32_t> batch;
    for (uint32_t i = start; i < start + 10; ++i) batch.push_back(i);
    EXPECT_NEAR(
        restored->PredictWorkload(dataset_->records, batch).value(),
        model.PredictWorkload(dataset_->records, batch).value(), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LearnedPersistence,
    ::testing::Values(ml::RegressorKind::kRidge, ml::RegressorKind::kGbt,
                      ml::RegressorKind::kRandomForest,
                      ml::RegressorKind::kMlp),
    [](const ::testing::TestParamInfo<ml::RegressorKind>& info) {
      return ml::RegressorKindName(info.param);
    });

TEST_F(PersistenceTest, FileRoundTrip) {
  LearnedWmpModel model = TrainSmall(ml::RegressorKind::kGbt);
  const std::string path = ::testing::TempDir() + "/model.wmp";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto restored = LearnedWmpModel::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<uint32_t> batch{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(
      restored->PredictWorkload(dataset_->records, batch).value(),
      model.PredictWorkload(dataset_->records, batch).value());
}

TEST_F(PersistenceTest, CorruptStreamRejected) {
  LearnedWmpModel model = TrainSmall(ml::RegressorKind::kRidge);
  BinaryWriter w;
  ASSERT_TRUE(model.Serialize(&w).ok());
  // Truncate at several depths; every prefix must fail cleanly, not crash.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{10}, w.size() / 2,
                     w.size() - 1}) {
    BinaryReader r(w.buffer().substr(0, cut));
    EXPECT_FALSE(LearnedWmpModel::Deserialize(&r).ok()) << "cut=" << cut;
  }
  // Flip the magic.
  std::string bad = w.buffer();
  bad[0] = 'X';
  BinaryReader r(bad);
  EXPECT_TRUE(
      LearnedWmpModel::Deserialize(&r).status().IsInvalidArgument());

  // Counts the sender controls must be checked against the bytes that are
  // actually there, without products that wrap.
  const auto rejected = [](const std::string& bytes) {
    BinaryReader reader(bytes);
    return !LearnedWmpModel::Deserialize(&reader).ok();
  };
  const std::string& good = w.buffer();
  const size_t tmpl = FindTag(good, kTemplateTag);
  const size_t km = FindTag(good, ml::serialize_tags::kKMeans);
  ASSERT_GT(km, tmpl);
  const size_t rows_at = km + 4, cols_at = km + 12, count_at = km + 20;
  const uint64_t rows = GetU64(good, rows_at);
  const uint64_t cols = GetU64(good, cols_at);
  ASSERT_EQ(static_cast<int64_t>(GetU64(good, tmpl + kTemplateKOffset)),
            static_cast<int64_t>(rows));
  ASSERT_EQ(cols % 2, 0u);
  {
    // Centroid value count with bit 61 set: count * 8 wraps to a small
    // number, so a multiplied bound check passes.
    std::string bytes = good;
    PutU64(&bytes, count_at, GetU64(good, count_at) | (uint64_t{1} << 61));
    EXPECT_TRUE(rejected(bytes));
  }
  {
    // rows + 2^63 over an even column count: rows * cols still equals the
    // value count modulo 2^64.
    std::string bytes = good;
    PutU64(&bytes, rows_at, rows + (uint64_t{1} << 63));
    EXPECT_TRUE(rejected(bytes));
  }
  for (uint64_t k : {rows + 1, rows - 1, uint64_t{1} << 40}) {
    // k must be the centroid count the stream carries.
    std::string bytes = good;
    PutU64(&bytes, tmpl + kTemplateKOffset, k);
    EXPECT_TRUE(rejected(bytes)) << "k=" << k;
  }

  LearnedWmpModel rules =
      TrainSmall(ml::RegressorKind::kRidge, TemplateMethod::kRuleBased);
  BinaryWriter rw;
  ASSERT_TRUE(rules.Serialize(&rw).ok());
  const std::string& good_rules = rw.buffer();
  const size_t rtmpl = FindTag(good_rules, kTemplateTag);
  const size_t nrules_at = rtmpl + kTemplateBodyOffset;
  const uint64_t nrules = GetU64(good_rules, nrules_at);
  ASSERT_GT(nrules, 0u);
  {
    std::string bytes = good_rules;
    PutU64(&bytes, nrules_at, uint64_t{1} << 60);
    EXPECT_TRUE(rejected(bytes));
  }
  {
    // The first rule's table count: after its u32-length-prefixed name.
    uint32_t name_len;
    std::memcpy(&name_len, good_rules.data() + nrules_at + 8,
                sizeof(name_len));
    std::string bytes = good_rules;
    PutU64(&bytes, nrules_at + 8 + 4 + name_len, uint64_t{1} << 60);
    EXPECT_TRUE(rejected(bytes));
  }
  {
    // Rule-based k is the rule count plus the fallback template.
    std::string bytes = good_rules;
    ASSERT_EQ(GetU64(good_rules, rtmpl + kTemplateKOffset), nrules + 1);
    PutU64(&bytes, rtmpl + kTemplateKOffset, nrules + 2);
    EXPECT_TRUE(rejected(bytes));
  }
}

TEST_F(PersistenceTest, UntrainedModelRefusesSerialize) {
  LearnedWmpModel model;
  BinaryWriter w;
  EXPECT_TRUE(model.Serialize(&w).IsFailedPrecondition());
}

// ---------- variable-length workloads ----------

TEST_F(PersistenceTest, VariableLengthPredictsAnyBatchSize) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.batch_size = 10;
  opt.variable_length = true;
  opt.regressor = ml::RegressorKind::kRidge;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Predict batches of sizes the model never saw in training.
  for (size_t size : {3u, 10u, 25u}) {
    std::vector<uint32_t> batch;
    for (uint32_t i = 0; i < size; ++i) batch.push_back(i);
    auto pred = model->PredictWorkload(dataset_->records, batch);
    ASSERT_TRUE(pred.ok()) << "size " << size;
    EXPECT_GT(*pred, 0.0);
    double actual = 0;
    for (uint32_t i : batch) actual += dataset_->records[i].actual_memory_mb;
    // Within a loose factor: the point is sane scaling, not accuracy.
    EXPECT_LT(*pred, 6.0 * actual) << "size " << size;
    EXPECT_GT(*pred, actual / 6.0) << "size " << size;
  }
}

TEST_F(PersistenceTest, VariableLengthScalesWithBatchSize) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.variable_length = true;
  opt.regressor = ml::RegressorKind::kRidge;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  std::vector<uint32_t> small{0, 1, 2, 3, 4};
  std::vector<uint32_t> large;
  for (uint32_t rep = 0; rep < 4; ++rep) {
    for (uint32_t i : small) large.push_back(i);
  }
  // Same distribution, 4x the mass -> ~4x the prediction.
  const double p_small =
      model->PredictWorkload(dataset_->records, small).value();
  const double p_large =
      model->PredictWorkload(dataset_->records, large).value();
  EXPECT_NEAR(p_large / p_small, 4.0, 1e-6);
}

TEST_F(PersistenceTest, VariableLengthRequiresSumLabel) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.variable_length = true;
  opt.label = WorkloadLabel::kMax;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  EXPECT_TRUE(model.status().IsInvalidArgument());
}

// ---------- elbow tuner ----------

TEST_F(PersistenceTest, ElbowTunerPicksFromCandidates) {
  std::vector<int> ks{2, 4, 8, 12, 16, 24};
  auto k = ChooseNumTemplates(dataset_->records, *indices_, ks, 3);
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_NE(std::find(ks.begin(), ks.end(), *k), ks.end());
  // TPC-C has 12 distinct query shapes; the elbow should land well below
  // the maximum candidate.
  EXPECT_LT(*k, 24);
}

TEST_F(PersistenceTest, ElbowTunerErrors) {
  EXPECT_TRUE(ChooseNumTemplates(dataset_->records, *indices_, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ChooseNumTemplates(dataset_->records, {}, {2, 3})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::core
