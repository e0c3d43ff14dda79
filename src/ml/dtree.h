#ifndef WMP_ML_DTREE_H_
#define WMP_ML_DTREE_H_

/// \file dtree.h
/// CART regression trees with histogram-based split finding.
///
/// Features are quantile-binned once per dataset (`FeatureBinner` /
/// `BinnedDataset`, ml/binned.h); split search then scans per-bin statistics
/// instead of sorting rows at every node, which keeps single-core training
/// fast at the paper's 93k-query scale. Trees grow on feature-major bins
/// with sibling subtraction and a reusable histogram pool
/// (ml/tree_grower.h). The original direct builder lives in the test-only
/// `wmp_reference` library (tests/reference/) as the equivalence oracle.
/// The same binning infrastructure is reused by the random forest and the
/// gradient-boosted trees.

#include <cstdint>
#include <vector>

#include "ml/binned.h"
#include "ml/regressor.h"

namespace wmp::ml {

/// Row-block grain for the ParallelFor in the tree-family batch Predict
/// overrides (DT, RF, GBT), replacing the ad-hoc 64 (RF/GBT) vs 256 (DT)
/// split. Measured on the bench box (50k-row GBT predict, grains 16..4096):
/// throughput is flat within noise, so the grain only matters for
/// multi-core chunk-handoff overhead — where fewer, larger blocks win as
/// long as there are still >= threads blocks. 256 keeps thousands of
/// blocks at serving batch sizes while capping handoffs.
inline constexpr size_t kTreePredictGrain = 256;

/// \brief Flat-array tree node. `feature == -1` marks a leaf.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;  ///< go left iff x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;  ///< leaf prediction
};

/// Hyperparameters shared by the tree learners.
struct TreeOptions {
  int max_depth = 10;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Features examined per split: 0 = all, else ceil(fraction * d).
  double feature_fraction = 0.0;
  int max_bins = 64;
};

/// \brief A single regression tree over raw features. The tree growers
/// (ml/tree_grower.h) build its nodes; DecisionTree, RandomForest and GBT
/// regressors hold it.
class RegressionTree {
 public:
  /// Predicts from raw (un-binned) features.
  double Predict(const std::vector<double>& x) const;
  double Predict(const double* x, size_t n) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool fitted() const { return !nodes_.empty(); }

  /// Wraps an externally built node array (the histogram growers and the
  /// gradient booster produce nodes through this).
  static RegressionTree FromNodes(std::vector<TreeNode> nodes);

 private:
  std::vector<TreeNode> nodes_;
};

/// Hyperparameters for DecisionTreeRegressor.
struct DecisionTreeOptions {
  TreeOptions tree;
  uint64_t seed = 42;
};

/// \brief Single CART tree exposed through the Regressor interface — the
/// paper's "DT" model family.
class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(DecisionTreeOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "DT"; }
  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  Result<double> PredictOne(const std::vector<double>& x) const override;
  /// Batch prediction walking the tree once per contiguous row (no per-row
  /// vector copies), parallelized over row blocks.
  Result<std::vector<double>> Predict(const Matrix& x) const override;
  Status Serialize(BinaryWriter* writer) const override;
  FitTiming fit_timing() const override { return fit_timing_; }
  Status FitWithSharedBins(const Matrix& x, const std::vector<double>& y,
                           BinnedDatasetCache* cache) override;

  /// Trains on an externally binned design. The dataset's binning governs;
  /// sharing one BinnedDataset across DT/RF/GBT trained on the same matrix
  /// is what BinnedDatasetCache is for.
  Status FitFromBinned(const BinnedDataset& data, const std::vector<double>& y);

  static Result<std::unique_ptr<DecisionTreeRegressor>> Deserialize(
      BinaryReader* reader);

  /// Wraps an already built tree (Deserialize, and reference builders).
  static std::unique_ptr<DecisionTreeRegressor> FromTree(
      RegressionTree tree, DecisionTreeOptions options = {});

  const RegressionTree& tree() const { return tree_; }
  const DecisionTreeOptions& options() const { return options_; }
  /// Histogram-engine instrumentation of the last Fit (pool allocation
  /// bounds are asserted by the equivalence suite).
  const TreeGrowerStats& grower_stats() const { return grower_stats_; }

 private:
  DecisionTreeOptions options_;
  RegressionTree tree_;
  FitTiming fit_timing_;
  TreeGrowerStats grower_stats_;
};

}  // namespace wmp::ml

#endif  // WMP_ML_DTREE_H_
