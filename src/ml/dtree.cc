#include "ml/dtree.h"

#include <numeric>

#include "ml/compiled_tree.h"
#include "ml/tree_grower.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::ml {

RegressionTree RegressionTree::FromNodes(std::vector<TreeNode> nodes) {
  RegressionTree t;
  t.nodes_ = std::move(nodes);
  return t;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  return Predict(x.data(), x.size());
}

double RegressionTree::Predict(const double* x, size_t n) const {
  int i = 0;
  while (nodes_[static_cast<size_t>(i)].feature >= 0) {
    const TreeNode& node = nodes_[static_cast<size_t>(i)];
    if (static_cast<size_t>(node.feature) >= n) return node.value;
    i = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left
                                                               : node.right;
  }
  return nodes_[static_cast<size_t>(i)].value;
}

Status DecisionTreeRegressor::Fit(const Matrix& x,
                                  const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("DT::Fit on empty matrix");
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("DT::Fit target size mismatch");
  }
  Stopwatch sw;
  WMP_ASSIGN_OR_RETURN(BinnedDataset data,
                       BinnedDataset::Build(x, options_.tree.max_bins));
  const double bin_ms = sw.ElapsedMillis();
  WMP_RETURN_IF_ERROR(FitFromBinned(data, y));
  fit_timing_.bin_ms = bin_ms;  // FitFromBinned reset it to 0 (shared bins)
  return Status::OK();
}

Status DecisionTreeRegressor::FitWithSharedBins(const Matrix& x,
                                                const std::vector<double>& y,
                                                BinnedDatasetCache* cache) {
  if (cache == nullptr || x.rows() == 0 || x.cols() == 0 ||
      y.size() != x.rows()) {
    return Fit(x, y);
  }
  WMP_ASSIGN_OR_RETURN(const BinnedDataset* data,
                       cache->Get(x, options_.tree.max_bins));
  return FitFromBinned(*data, y);
}

Status DecisionTreeRegressor::FitFromBinned(const BinnedDataset& data,
                                            const std::vector<double>& y) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("DT::FitFromBinned on empty dataset");
  }
  if (y.size() != data.num_rows()) {
    return Status::InvalidArgument("DT::FitFromBinned target size mismatch");
  }
  fit_timing_ = {};
  Stopwatch sw;
  std::vector<uint32_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  Rng rng(options_.seed);
  VarianceTreeGrower grower(data, y, options_.tree);
  std::vector<TreeNode> nodes;
  WMP_RETURN_IF_ERROR(grower.Grow(rows, &rng, &nodes));
  tree_ = RegressionTree::FromNodes(std::move(nodes));
  fit_timing_.grow_ms = sw.ElapsedMillis();
  grower_stats_ = grower.stats();
  return Status::OK();
}

Result<double> DecisionTreeRegressor::PredictOne(
    const std::vector<double>& x) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  return tree_.Predict(x);
}

Result<std::vector<double>> DecisionTreeRegressor::Predict(
    const Matrix& x) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), kTreePredictGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = tree_.Predict(x.RowPtr(i), x.cols());
    }
  });
  return out;
}

// The stream body is the compiled bin-space form (ml/compiled_tree.h):
// one shared edge table plus ~7 bytes per node instead of five 8-byte
// fields. Decompile() restores the exact thresholds and topology, so the
// codec change is invisible to predictions.
Status DecisionTreeRegressor::Serialize(BinaryWriter* writer) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("DT not fitted");
  writer->WriteU32(serialize_tags::kDecisionTree);
  WMP_ASSIGN_OR_RETURN(
      CompiledEnsemble compiled,
      CompiledEnsemble::Compile(*this, CompileOptions{.lut_levels = 0}));
  compiled.Serialize(writer);
  return Status::OK();
}

Result<std::unique_ptr<DecisionTreeRegressor>> DecisionTreeRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kDecisionTree) {
    return Status::InvalidArgument("bad decision-tree magic tag");
  }
  WMP_ASSIGN_OR_RETURN(
      CompiledEnsemble compiled,
      CompiledEnsemble::Deserialize(reader, CompileOptions{.lut_levels = 0}));
  if (compiled.combine() != CompiledEnsemble::Combine::kSingle ||
      compiled.num_trees() != 1) {
    return Status::InvalidArgument("stream is not a single decision tree");
  }
  WMP_ASSIGN_OR_RETURN(std::vector<RegressionTree> trees,
                       compiled.Decompile());
  return FromTree(std::move(trees.front()));
}

std::unique_ptr<DecisionTreeRegressor> DecisionTreeRegressor::FromTree(
    RegressionTree tree, DecisionTreeOptions options) {
  auto model = std::make_unique<DecisionTreeRegressor>(options);
  model->tree_ = std::move(tree);
  return model;
}

}  // namespace wmp::ml
