#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/compiled_tree.h"
#include "ml/tree_grower.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace wmp::ml {

Status GbtRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("GBT::Fit on empty matrix");
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("GBT::Fit target size mismatch");
  }
  if (options_.num_rounds < 1) {
    return Status::InvalidArgument("GBT needs num_rounds >= 1");
  }
  Stopwatch sw;
  WMP_ASSIGN_OR_RETURN(BinnedDataset data,
                       BinnedDataset::Build(x, options_.max_bins));
  const double bin_ms = sw.ElapsedMillis();
  WMP_RETURN_IF_ERROR(FitFromBinned(data, y));
  fit_timing_.bin_ms = bin_ms;  // FitFromBinned reset it to 0 (shared bins)
  return Status::OK();
}

Status GbtRegressor::FitWithSharedBins(const Matrix& x,
                                       const std::vector<double>& y,
                                       BinnedDatasetCache* cache) {
  if (cache == nullptr || x.rows() == 0 || x.cols() == 0 ||
      y.size() != x.rows()) {
    return Fit(x, y);
  }
  WMP_ASSIGN_OR_RETURN(const BinnedDataset* data,
                       cache->Get(x, options_.max_bins));
  return FitFromBinned(*data, y);
}

Status GbtRegressor::FitFromBinned(const BinnedDataset& data,
                                   const std::vector<double>& y) {
  const size_t n = data.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("GBT::FitFromBinned on empty dataset");
  }
  if (y.size() != n) {
    return Status::InvalidArgument("GBT::FitFromBinned target size mismatch");
  }
  if (options_.num_rounds < 1) {
    return Status::InvalidArgument("GBT needs num_rounds >= 1");
  }
  fit_timing_ = {};

  const size_t d = data.num_features();
  base_score_ = 0.0;
  for (double v : y) base_score_ += v;
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<GradHess> gh(n);
  Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(static_cast<size_t>(options_.num_rounds));

  std::vector<uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<uint32_t> sample;
  std::vector<size_t> features;
  std::vector<uint8_t> in_sample(n);
  const size_t colsample_keep = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(options_.colsample * static_cast<double>(d))));

  GbtGrowParams params;
  params.max_depth = options_.max_depth;
  params.lambda = options_.lambda;
  params.gamma = options_.gamma;
  params.min_child_weight = options_.min_child_weight;
  GbtTreeGrower grower(data, params);
  std::vector<TreeNode> nodes;  // reused scratch across rounds

  const double lr = options_.learning_rate;
  Stopwatch sw;
  for (int round = 0; round < options_.num_rounds; ++round) {
    sw.Reset();
    // Squared-error loss: g = pred - y, h = 1.
    for (size_t i = 0; i < n; ++i) {
      gh[i].g = pred[i] - y[i];
      gh[i].h = 1.0;
    }
    fit_timing_.update_ms += sw.ElapsedMillis();

    sw.Reset();
    // Row then feature sampling, consuming the RNG in the reference
    // builder's order so both engines see identical draws.
    if (options_.subsample < 1.0) {
      sample.clear();
      for (uint32_t r : all_rows) {
        if (rng.Bernoulli(options_.subsample)) sample.push_back(r);
      }
      if (sample.empty()) sample = all_rows;
    } else {
      sample = all_rows;
    }
    features.resize(d);
    std::iota(features.begin(), features.end(), 0);
    if (options_.colsample < 1.0) {
      rng.Shuffle(&features);
      features.resize(colsample_keep);
    }
    WMP_RETURN_IF_ERROR(grower.Grow(gh, sample, features, &nodes));
    fit_timing_.grow_ms += sw.ElapsedMillis();

    sw.Reset();
    // In-sample rows update by leaf-membership scatter: the in-place
    // partition already grouped them by leaf, and the per-leaf delta is the
    // exact value raw re-traversal would add.
    const std::vector<uint32_t>& order = grower.row_order();
    for (const GbtTreeGrower::LeafRange& leaf : grower.leaf_ranges()) {
      const double delta = lr * nodes[static_cast<size_t>(leaf.node)].value;
      for (size_t i = leaf.begin; i < leaf.end; ++i) pred[order[i]] += delta;
    }
    // Out-of-sample rows traverse the fresh tree in bin space (same leaf as
    // raw-feature traversal by the bin/threshold equivalence).
    if (order.size() < n) {
      std::fill(in_sample.begin(), in_sample.end(), 0);
      for (uint32_t r : order) in_sample[r] = 1;
      for (uint32_t r = 0; r < static_cast<uint32_t>(n); ++r) {
        if (!in_sample[r]) pred[r] += lr * grower.PredictRow(nodes, r);
      }
    }
    fit_timing_.update_ms += sw.ElapsedMillis();
    trees_.push_back(RegressionTree::FromNodes(nodes));
  }
  grower_stats_ = grower.stats();
  return Status::OK();
}

Result<double> GbtRegressor::PredictOne(const std::vector<double>& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  double acc = base_score_;
  for (const auto& tree : trees_) {
    acc += options_.learning_rate * tree.Predict(x);
  }
  return acc;
}

Result<std::vector<double>> GbtRegressor::Predict(const Matrix& x) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), kTreePredictGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const double* row = x.RowPtr(i);
      double acc = base_score_;
      for (const auto& tree : trees_) {
        acc += options_.learning_rate * tree.Predict(row, x.cols());
      }
      out[i] = acc;
    }
  });
  return out;
}

// Compiled bin-space codec (ml/compiled_tree.h). The stream's base score
// and per-tree scale carry base_score_ / learning_rate, so deserialization
// restores both the trees (losslessly, via Decompile) and the prediction
// arithmetic exactly.
Status GbtRegressor::Serialize(BinaryWriter* writer) const {
  if (trees_.empty()) return Status::FailedPrecondition("GBT not fitted");
  writer->WriteU32(serialize_tags::kGbt);
  WMP_ASSIGN_OR_RETURN(
      CompiledEnsemble compiled,
      CompiledEnsemble::Compile(*this, CompileOptions{.lut_levels = 0}));
  compiled.Serialize(writer);
  return Status::OK();
}

Result<std::unique_ptr<GbtRegressor>> GbtRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kGbt) {
    return Status::InvalidArgument("bad gbt magic tag");
  }
  WMP_ASSIGN_OR_RETURN(
      CompiledEnsemble compiled,
      CompiledEnsemble::Deserialize(reader, CompileOptions{.lut_levels = 0}));
  if (compiled.combine() != CompiledEnsemble::Combine::kBoosted) {
    return Status::InvalidArgument("stream is not a boosted ensemble");
  }
  GbtOptions opt;
  opt.learning_rate = compiled.scale();
  WMP_ASSIGN_OR_RETURN(std::vector<RegressionTree> trees,
                       compiled.Decompile());
  return FromTrees(std::move(trees), compiled.base_score(), opt);
}

std::unique_ptr<GbtRegressor> GbtRegressor::FromTrees(
    std::vector<RegressionTree> trees, double base_score, GbtOptions options) {
  auto model = std::make_unique<GbtRegressor>(options);
  model->base_score_ = base_score;
  model->trees_ = std::move(trees);
  return model;
}

}  // namespace wmp::ml
