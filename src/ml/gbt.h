#ifndef WMP_ML_GBT_H_
#define WMP_ML_GBT_H_

/// \file gbt.h
/// Gradient-boosted regression trees with the XGBoost objective — the
/// paper's "XGB" model family.
///
/// Trees are grown on first/second-order gradient statistics with the
/// regularized gain
///   gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
/// and leaf weights `-G/(H+lambda)`; predictions accumulate `eta * leaf`
/// over rounds on top of a base score. For squared-error loss the gradient
/// is `pred - y` and the hessian is 1.

#include <vector>

#include "ml/dtree.h"
#include "ml/regressor.h"

namespace wmp::ml {

/// Hyperparameters for GbtRegressor.
struct GbtOptions {
  int num_rounds = 80;          ///< boosting rounds (trees).
  double learning_rate = 0.15;  ///< eta shrinkage.
  int max_depth = 6;
  double lambda = 1.0;          ///< L2 on leaf weights.
  double gamma = 0.0;           ///< min gain to split.
  double subsample = 1.0;       ///< row sampling per round.
  double colsample = 1.0;       ///< feature sampling per round.
  int min_child_weight = 1;     ///< min hessian sum per leaf.
  int max_bins = 64;
  uint64_t seed = 42;
};

/// \brief XGBoost-style gradient-boosted tree regressor.
class GbtRegressor : public Regressor {
 public:
  explicit GbtRegressor(GbtOptions options = {}) : options_(options) {}

  std::string Name() const override { return "XGB"; }
  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  Result<double> PredictOne(const std::vector<double>& x) const override;
  /// Batch prediction: each contiguous row accumulates over all trees in
  /// round order (bitwise-identical to PredictOne), rows parallelized.
  Result<std::vector<double>> Predict(const Matrix& x) const override;
  Status Serialize(BinaryWriter* writer) const override;
  FitTiming fit_timing() const override { return fit_timing_; }
  Status FitWithSharedBins(const Matrix& x, const std::vector<double>& y,
                           BinnedDatasetCache* cache) override;

  /// Trains on an externally binned design. Each round's in-sample
  /// prediction updates come from leaf-membership scatter over the
  /// grower's partitioned row ranges; out-of-sample rows (when
  /// `subsample < 1`) traverse the fresh tree in bin space. Both agree
  /// exactly with raw-feature re-traversal, so the fitted model is
  /// identical to what `Fit` produces on the same binning.
  Status FitFromBinned(const BinnedDataset& data, const std::vector<double>& y);

  static Result<std::unique_ptr<GbtRegressor>> Deserialize(BinaryReader* reader);

  /// Wraps already built boosting rounds over `base_score` (Deserialize,
  /// and reference builders); `options.learning_rate` scales each tree.
  static std::unique_ptr<GbtRegressor> FromTrees(
      std::vector<RegressionTree> trees, double base_score,
      GbtOptions options = {});

  size_t num_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_score() const { return base_score_; }
  const GbtOptions& options() const { return options_; }
  /// Histogram-engine instrumentation of the last Fit.
  const TreeGrowerStats& grower_stats() const { return grower_stats_; }

 private:
  GbtOptions options_;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  FitTiming fit_timing_;
  TreeGrowerStats grower_stats_;
};

}  // namespace wmp::ml

#endif  // WMP_ML_GBT_H_
