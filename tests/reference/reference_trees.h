#ifndef WMP_TESTS_REFERENCE_REFERENCE_TREES_H_
#define WMP_TESTS_REFERENCE_REFERENCE_TREES_H_

/// \file reference_trees.h
/// The direct (pre-histogram-engine) tree builders, kept as the oracle the
/// histogram engine (ml/tree_grower.h) is held to. They consume a row-major
/// `uint16_t` bin buffer, allocate a histogram at every node and, for GBT,
/// re-traverse the raw features after every round. Production training never
/// runs them; the equivalence suite and `bench/train_throughput` do.

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/binned.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/random.h"
#include "util/status.h"

namespace wmp::ml::reference {

/// Bins every row of `x` with a fitted `binner`; returns a row-major
/// `n x d` bin-index buffer (the layout the direct builders consume).
Result<std::vector<uint16_t>> BinAll(const FeatureBinner& binner,
                                     const Matrix& x);

/// Direct-build CART trainer on rows `row_indices` of the row-major binned
/// design.
/// \param bins    row-major n x d bin indices from BinAll
/// \param binner  fitted binner (for raw-value thresholds)
/// \param y       targets, length n
Result<RegressionTree> FitRegressionTree(
    const std::vector<uint16_t>& bins, size_t num_features,
    const FeatureBinner& binner, const std::vector<double>& y,
    const std::vector<uint32_t>& row_indices, const TreeOptions& options,
    Rng* rng);

/// The reference fit of each tree family: same options, same RNG draws, same
/// combine arithmetic as the production `Fit`, built by the direct builders.
/// @{
Result<std::unique_ptr<DecisionTreeRegressor>> FitDecisionTree(
    const Matrix& x, const std::vector<double>& y,
    const DecisionTreeOptions& options);
Result<std::unique_ptr<RandomForestRegressor>> FitRandomForest(
    const Matrix& x, const std::vector<double>& y,
    const RandomForestOptions& options);
Result<std::unique_ptr<GbtRegressor>> FitGbt(const Matrix& x,
                                             const std::vector<double>& y,
                                             const GbtOptions& options);
/// @}

}  // namespace wmp::ml::reference

#endif  // WMP_TESTS_REFERENCE_REFERENCE_TREES_H_
