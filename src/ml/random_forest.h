#ifndef WMP_ML_RANDOM_FOREST_H_
#define WMP_ML_RANDOM_FOREST_H_

/// \file random_forest.h
/// Bagged CART ensemble with per-split feature subsampling — the paper's
/// "RF" model family.

#include <vector>

#include "ml/dtree.h"
#include "ml/regressor.h"

namespace wmp::ml {

/// Hyperparameters for RandomForestRegressor.
struct RandomForestOptions {
  int num_trees = 50;
  TreeOptions tree = {.max_depth = 12,
                      .min_samples_split = 2,
                      .min_samples_leaf = 2,
                      .feature_fraction = 0.6,
                      .max_bins = 64};
  double bootstrap_fraction = 1.0;  ///< bootstrap sample size / n.
  uint64_t seed = 42;
};

/// \brief Random forest regressor: average of bootstrapped trees.
class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(RandomForestOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "RF"; }
  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  Result<double> PredictOne(const std::vector<double>& x) const override;
  /// Batch prediction: each contiguous row averages over all trees in
  /// ensemble order (bitwise-identical to PredictOne), rows parallelized.
  Result<std::vector<double>> Predict(const Matrix& x) const override;
  Status Serialize(BinaryWriter* writer) const override;
  FitTiming fit_timing() const override { return fit_timing_; }
  Status FitWithSharedBins(const Matrix& x, const std::vector<double>& y,
                           BinnedDatasetCache* cache) override;

  /// Trains on an externally binned design; one grower — and so one
  /// histogram pool and one row buffer — is reused across all trees of the
  /// forest.
  Status FitFromBinned(const BinnedDataset& data, const std::vector<double>& y);

  static Result<std::unique_ptr<RandomForestRegressor>> Deserialize(
      BinaryReader* reader);

  /// Wraps already built trees (Deserialize, and reference builders).
  static std::unique_ptr<RandomForestRegressor> FromTrees(
      std::vector<RegressionTree> trees, RandomForestOptions options = {});

  size_t num_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  const RandomForestOptions& options() const { return options_; }
  /// Histogram-engine instrumentation of the last Fit.
  const TreeGrowerStats& grower_stats() const { return grower_stats_; }

 private:
  RandomForestOptions options_;
  std::vector<RegressionTree> trees_;
  FitTiming fit_timing_;
  TreeGrowerStats grower_stats_;
};

}  // namespace wmp::ml

#endif  // WMP_ML_RANDOM_FOREST_H_
