#ifndef WMP_ML_REGRESSOR_H_
#define WMP_ML_REGRESSOR_H_

/// \file regressor.h
/// Common interface for every learned estimator in the library.
///
/// Both LearnedWMP (distribution regression over workload histograms) and the
/// SingleWMP baselines (per-query regression over plan features) are trained
/// through this interface, so the experiment harness can sweep model families
/// uniformly (Figs. 4-8).

#include <memory>
#include <string>
#include <vector>

#include "ml/linalg.h"
#include "util/io.h"
#include "util/status.h"

namespace wmp::ml {

/// Identifies a model family. Names mirror the paper's model suffixes.
enum class RegressorKind {
  kRidge,         ///< L2-regularized linear regression (closed form).
  kDecisionTree,  ///< CART regression tree.
  kRandomForest,  ///< Bagged CART ensemble with feature subsampling.
  kGbt,           ///< Gradient-boosted trees, XGBoost-style objective.
  kMlp,           ///< Multilayer perceptron ("DNN" in the paper).
};

/// Paper-style short name ("Ridge", "DT", "RF", "XGB", "DNN").
const char* RegressorKindName(RegressorKind kind);

/// All kinds, in the order the paper's figures list them.
const std::vector<RegressorKind>& AllRegressorKinds();

/// \brief Phase breakdown of the last Fit() call, for attributing training
/// regressions (wmpctl train, bench/train_throughput). Families without
/// internal phases report zeros.
struct FitTiming {
  double bin_ms = 0.0;     ///< dataset binning (skipped on shared-bin hits)
  double grow_ms = 0.0;    ///< tree growth / split search
  double update_ms = 0.0;  ///< GBT per-round gradient + prediction updates
};

class BinnedDatasetCache;

/// \brief Abstract trainable regression model.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Model family short name.
  virtual std::string Name() const = 0;

  /// Trains on feature matrix `x` (one row per example) and targets `y`.
  /// Refitting an already-fitted model replaces the previous fit.
  virtual Status Fit(const Matrix& x, const std::vector<double>& y) = 0;

  /// Predicts a single example. Requires a prior successful Fit().
  virtual Result<double> PredictOne(const std::vector<double>& x) const = 0;

  /// Predicts every row of `x`.
  ///
  /// This is the batched inference hot path: every concrete model overrides
  /// it with a vectorized implementation that reads contiguous rows via
  /// `Matrix::RowPtr` and distributes row blocks over the shared worker
  /// pool (util/parallel.h). Overrides must agree with a PredictOne() loop
  /// to within 1e-9 per row (the tests assert bitwise-or-better agreement).
  /// Thread-safe after Fit(): Predict is const and takes no locks. The
  /// default implementation loops PredictOne().
  virtual Result<std::vector<double>> Predict(const Matrix& x) const;

  /// Serializes the fitted model. The byte count of the stream is the
  /// "model size" metric in Fig. 8.
  virtual Status Serialize(BinaryWriter* writer) const = 0;

  /// Serialized size in bytes; convenience over Serialize().
  Result<size_t> SerializedSize() const;

  /// Phase breakdown of the last Fit(); zeros for families that don't
  /// instrument their trainer.
  virtual FitTiming fit_timing() const { return {}; }

  /// Fits like Fit(), but families that train on binned designs (the tree
  /// family) route their binning through `cache`
  /// so several candidates trained on the same design matrix bin it once.
  /// The default — and any family without a binned trainer, or a null
  /// cache — is a plain Fit(x, y), which is also the exact arithmetic the
  /// shared path produces (a cached fit is bitwise the fit the model would
  /// compute alone; asserted in tests). On the cached path the model's
  /// `fit_timing().bin_ms` reads 0: binning is a shared cost paid once
  /// inside the cache (it still shows up in the first consumer's fit wall
  /// time, so nothing disappears from train_ms totals).
  virtual Status FitWithSharedBins(const Matrix& x,
                                   const std::vector<double>& y,
                                   BinnedDatasetCache* /*cache*/) {
    return Fit(x, y);
  }
};

/// \brief Creates a regressor of the given family with the default
/// hyperparameters used throughout the experiments.
///
/// \param kind  model family
/// \param seed  seed for stochastic trainers (RF bagging, MLP init/shuffle);
///              ignored by deterministic ones.
std::unique_ptr<Regressor> CreateRegressor(RegressorKind kind, uint64_t seed = 42);

/// \brief Reconstructs a regressor from a stream produced by
/// `Regressor::Serialize` (dispatches on the per-model magic tag).
Result<std::unique_ptr<Regressor>> DeserializeRegressor(BinaryReader* reader);

namespace serialize_tags {
/// Per-model magic tags; first u32 of every serialized model stream.
constexpr uint32_t kRidge = 0x574D5031;         // "WMP1"
constexpr uint32_t kDecisionTree = 0x574D5032;  // "WMP2"
constexpr uint32_t kRandomForest = 0x574D5033;  // "WMP3"
constexpr uint32_t kGbt = 0x574D5034;           // "WMP4"
constexpr uint32_t kMlp = 0x574D5035;           // "WMP5"
constexpr uint32_t kScaler = 0x574D5036;        // "WMP6"
constexpr uint32_t kKMeans = 0x574D5037;        // "WMP7"
}  // namespace serialize_tags

}  // namespace wmp::ml

#endif  // WMP_ML_REGRESSOR_H_
