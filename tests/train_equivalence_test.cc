// Equivalence suite for the histogram training engine: the production path
// (feature-major bins, single-pass builds, sibling subtraction, pooled
// buffers, GBT leaf-scatter updates) must reproduce the direct builders of
// the test-only reference library (tests/reference/) within 1e-9 on
// predictions — DT and RF exactly,
// GBT up to histogram-subtraction noise — so a subtraction bug can never
// silently change models. Also pins the allocation-free-growth contract:
// histogram buffers allocated during an ensemble fit are bounded by tree
// depth, not node count.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/binned.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "reference/reference_trees.h"
#include "util/random.h"

namespace wmp::ml {
namespace {

// Continuous targets over mixed step/smooth structure: tree-friendly but
// with noise, so competing split gains are well separated and the two
// engines choose identical structure.
void MakeData(size_t n, uint64_t seed, Matrix* x, std::vector<double>* y) {
  Rng rng(seed);
  *x = Matrix(n, 6);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < 6; ++c) x->At(i, c) = rng.UniformDouble(-3, 3);
    (*y)[i] = (x->At(i, 0) > 0.4 ? 10.0 : 0.0) + 2.0 * x->At(i, 1) +
              x->At(i, 2) * x->At(i, 2) + rng.Normal(0, 0.5);
  }
}

double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(a[i] - b[i]) / std::max(1.0, std::fabs(a[i])));
  }
  return worst;
}

TEST(TrainEquivalenceTest, DecisionTreeMatchesReferenceBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeData(1500, 101, &x, &y);
  DecisionTreeOptions opt;
  opt.tree.max_depth = 10;
  DecisionTreeRegressor hist(opt);
  ASSERT_TRUE(hist.Fit(x, y).ok());
  auto ref = reference::FitDecisionTree(x, y, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  // All features examined per split -> subtraction engine; structure and
  // leaf means (computed from row scans, not histograms) match exactly on
  // tie-free data.
  ASSERT_EQ(hist.tree().nodes().size(), (*ref)->tree().nodes().size());
  auto ph = hist.Predict(x).value();
  auto pr = (*ref)->Predict(x).value();
  EXPECT_LE(MaxRelDiff(pr, ph), 1e-9);
}

TEST(TrainEquivalenceTest, RandomForestMatchesReferenceBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeData(900, 103, &x, &y);
  RandomForestOptions opt;
  opt.num_trees = 15;
  opt.seed = 9;  // feature_fraction 0.6 -> per-node sampling, direct builds
  RandomForestRegressor hist(opt);
  ASSERT_TRUE(hist.Fit(x, y).ok());
  auto ref = reference::FitRandomForest(x, y, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto ph = hist.Predict(x).value();
  auto pr = (*ref)->Predict(x).value();
  // Sampled mode accumulates in the reference's exact order and consumes
  // the RNG identically, so the forests are bitwise equal.
  for (size_t i = 0; i < pr.size(); ++i) EXPECT_EQ(pr[i], ph[i]);
}

TEST(TrainEquivalenceTest, GbtMatchesReferenceWithinTolerance) {
  Matrix x;
  std::vector<double> y;
  MakeData(1200, 107, &x, &y);
  GbtOptions opt;
  opt.num_rounds = 60;
  GbtRegressor hist(opt);
  ASSERT_TRUE(hist.Fit(x, y).ok());
  auto ref = reference::FitGbt(x, y, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(hist.num_trees(), (*ref)->num_trees());
  EXPECT_DOUBLE_EQ(hist.base_score(), (*ref)->base_score());
  auto ph = hist.Predict(x).value();
  auto pr = (*ref)->Predict(x).value();
  EXPECT_LE(MaxRelDiff(pr, ph), 1e-9);
}

TEST(TrainEquivalenceTest, GbtSubsampleExercisesBinSpaceTraversal) {
  // subsample < 1 routes out-of-sample rows through the grower's bin-space
  // traversal each round; colsample < 1 restricts subtraction to the
  // sampled segments. Both must stay within tolerance of raw re-traversal.
  Matrix x;
  std::vector<double> y;
  MakeData(1000, 109, &x, &y);
  GbtOptions opt;
  opt.num_rounds = 50;
  opt.subsample = 0.8;
  opt.colsample = 0.7;
  opt.seed = 21;
  GbtRegressor hist(opt);
  ASSERT_TRUE(hist.Fit(x, y).ok());
  auto ref = reference::FitGbt(x, y, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto ph = hist.Predict(x).value();
  auto pr = (*ref)->Predict(x).value();
  EXPECT_LE(MaxRelDiff(pr, ph), 1e-9);
}

TEST(TrainEquivalenceTest, FitFromBinnedMatchesFitBitwise) {
  Matrix x;
  std::vector<double> y;
  MakeData(800, 113, &x, &y);
  auto data = BinnedDataset::Build(x, 64);
  ASSERT_TRUE(data.ok());

  GbtRegressor plain{GbtOptions{.num_rounds = 20}};
  GbtRegressor shared{GbtOptions{.num_rounds = 20}};
  ASSERT_TRUE(plain.Fit(x, y).ok());
  ASSERT_TRUE(shared.FitFromBinned(*data, y).ok());
  auto pp = plain.Predict(x).value();
  auto ps = shared.Predict(x).value();
  for (size_t i = 0; i < pp.size(); ++i) EXPECT_EQ(pp[i], ps[i]);

  RandomForestRegressor rf_plain{RandomForestOptions{.num_trees = 8}};
  RandomForestRegressor rf_shared{RandomForestOptions{.num_trees = 8}};
  ASSERT_TRUE(rf_plain.Fit(x, y).ok());
  ASSERT_TRUE(rf_shared.FitFromBinned(*data, y).ok());
  auto rp = rf_plain.Predict(x).value();
  auto rs = rf_shared.Predict(x).value();
  for (size_t i = 0; i < rp.size(); ++i) EXPECT_EQ(rp[i], rs[i]);
}

TEST(TrainEquivalenceTest, SharedBinCacheBinsOnceAcrossFamilies) {
  Matrix x;
  std::vector<double> y;
  MakeData(600, 127, &x, &y);
  BinnedDatasetCache cache;
  DecisionTreeRegressor dt;
  RandomForestRegressor rf{RandomForestOptions{.num_trees = 6}};
  GbtRegressor gbt{GbtOptions{.num_rounds = 15}};
  ASSERT_TRUE(dt.FitWithSharedBins(x, y, &cache).ok());
  ASSERT_TRUE(rf.FitWithSharedBins(x, y, &cache).ok());
  ASSERT_TRUE(gbt.FitWithSharedBins(x, y, &cache).ok());
  // All three share max_bins=64, so the design was binned exactly once.
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  // The shared-bin fit is the fit each model computes alone.
  DecisionTreeRegressor dt_alone;
  ASSERT_TRUE(dt_alone.Fit(x, y).ok());
  auto pa = dt_alone.Predict(x).value();
  auto pc = dt.Predict(x).value();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pc[i]);
}

// The allocation-free-growth contract: one ensemble fit allocates histogram
// buffers proportional to tree depth (pool slots), never to node count.
TEST(TrainEquivalenceTest, HistogramPoolAllocationsBoundedByDepth) {
  Matrix x;
  std::vector<double> y;
  MakeData(1000, 137, &x, &y);

  GbtOptions gopt;
  gopt.num_rounds = 80;
  gopt.max_depth = 6;
  GbtRegressor gbt(gopt);
  ASSERT_TRUE(gbt.Fit(x, y).ok());
  const TreeGrowerStats gs = gbt.grower_stats();
  EXPECT_GT(gs.nodes_built, 1000u) << "fixture should grow many nodes";
  EXPECT_LE(gs.pool_allocations, static_cast<size_t>(gopt.max_depth) + 2);
  EXPECT_GT(gs.histograms_subtracted, 0u);

  RandomForestOptions ropt;
  ropt.num_trees = 20;
  RandomForestRegressor rf(ropt);
  ASSERT_TRUE(rf.Fit(x, y).ok());
  const TreeGrowerStats rs = rf.grower_stats();
  EXPECT_GT(rs.nodes_built, 1000u);
  // Sampled mode recycles a single scratch buffer.
  EXPECT_EQ(rs.pool_allocations, 1u);
}

}  // namespace
}  // namespace wmp::ml
