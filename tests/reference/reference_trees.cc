#include "reference/reference_trees.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/tree_grower.h"

namespace wmp::ml::reference {

namespace {

// Work item for iterative (stack-based) reference tree construction.
struct BuildItem {
  int node = 0;
  size_t begin = 0;  // range into the shared index buffer
  size_t end = 0;
  int depth = 0;
};

struct BinStats {
  double sum = 0.0;
  uint32_t count = 0;
};

struct GbtBuildItem {
  int node = 0;
  size_t begin = 0;
  size_t end = 0;
  int depth = 0;
  double g_sum = 0.0;
  double h_sum = 0.0;
};

// Grows one tree on gradient statistics from the row-major bin buffer,
// allocating the per-feature histogram at every node.
class GbtTreeBuilder {
 public:
  GbtTreeBuilder(const std::vector<uint16_t>& bins, size_t num_features,
                 const FeatureBinner& binner, const GbtOptions& opt, Rng* rng)
      : bins_(bins),
        d_(num_features),
        binner_(binner),
        opt_(opt),
        rng_(rng) {}

  std::vector<TreeNode> Build(const std::vector<GradHess>& gh,
                              std::vector<uint32_t> idx) {
    nodes_.clear();
    nodes_.push_back({});
    // Per-round feature subsample.
    features_.resize(d_);
    std::iota(features_.begin(), features_.end(), 0);
    if (opt_.colsample < 1.0) {
      rng_->Shuffle(&features_);
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(
                 std::ceil(opt_.colsample * static_cast<double>(d_))));
      features_.resize(keep);
    }

    double g0 = 0.0, h0 = 0.0;
    for (uint32_t r : idx) {
      g0 += gh[r].g;
      h0 += gh[r].h;
    }
    std::vector<GbtBuildItem> stack;
    stack.push_back({0, 0, idx.size(), 0, g0, h0});
    while (!stack.empty()) {
      GbtBuildItem item = stack.back();
      stack.pop_back();
      ProcessNode(gh, &idx, item, &stack);
    }
    return std::move(nodes_);
  }

 private:
  void ProcessNode(const std::vector<GradHess>& gh, std::vector<uint32_t>* idx,
                   const GbtBuildItem& item,
                   std::vector<GbtBuildItem>* stack) {
    TreeNode& node = nodes_[static_cast<size_t>(item.node)];
    const double lambda = opt_.lambda;
    node.value = -item.g_sum / (item.h_sum + lambda);

    if (item.depth >= opt_.max_depth ||
        item.h_sum < 2.0 * opt_.min_child_weight) {
      return;
    }
    const double parent_score =
        item.g_sum * item.g_sum / (item.h_sum + lambda);

    double best_gain = 0.0;
    size_t best_feature = 0;
    uint16_t best_bin = 0;
    double best_gl = 0.0, best_hl = 0.0;
    for (size_t f : features_) {
      const size_t nbins = binner_.NumBins(f);
      if (nbins < 2) continue;
      hist_.assign(nbins, {});
      for (size_t i = item.begin; i < item.end; ++i) {
        const uint32_t r = (*idx)[i];
        GradHess& b = hist_[bins_[r * d_ + f]];
        b.g += gh[r].g;
        b.h += gh[r].h;
      }
      double gl = 0.0, hl = 0.0;
      for (size_t b = 0; b + 1 < nbins; ++b) {
        gl += hist_[b].g;
        hl += hist_[b].h;
        const double gr = item.g_sum - gl;
        const double hr = item.h_sum - hl;
        if (hl < opt_.min_child_weight || hr < opt_.min_child_weight) continue;
        const double gain =
            0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) -
                   parent_score) -
            opt_.gamma;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_bin = static_cast<uint16_t>(b);
          best_gl = gl;
          best_hl = hl;
        }
      }
    }
    if (best_gain <= 0.0) return;

    auto mid_it = std::partition(
        idx->begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx->begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](uint32_t r) { return bins_[r * d_ + best_feature] <= best_bin; });
    const size_t mid = static_cast<size_t>(mid_it - idx->begin());
    if (mid == item.begin || mid == item.end) return;

    // push_back may reallocate, so finish all writes through the index
    // rather than the `node` reference.
    const int left_id = static_cast<int>(nodes_.size());
    const int right_id = left_id + 1;
    nodes_.push_back({});
    nodes_.push_back({});
    TreeNode& split_node = nodes_[static_cast<size_t>(item.node)];
    split_node.feature = static_cast<int>(best_feature);
    split_node.threshold = binner_.UpperEdge(best_feature, best_bin);
    split_node.left = left_id;
    split_node.right = right_id;
    stack->push_back({right_id, mid, item.end, item.depth + 1,
                      item.g_sum - best_gl, item.h_sum - best_hl});
    stack->push_back(
        {left_id, item.begin, mid, item.depth + 1, best_gl, best_hl});
  }

  const std::vector<uint16_t>& bins_;
  const size_t d_;
  const FeatureBinner& binner_;
  const GbtOptions& opt_;
  Rng* rng_;
  std::vector<TreeNode> nodes_;
  std::vector<size_t> features_;
  std::vector<GradHess> hist_;
};

}  // namespace

Result<std::vector<uint16_t>> BinAll(const FeatureBinner& binner,
                                     const Matrix& x) {
  if (!binner.fitted()) return Status::FailedPrecondition("binner not fitted");
  if (x.cols() != binner.num_features()) {
    return Status::InvalidArgument("binner column count mismatch");
  }
  std::vector<uint16_t> out(x.rows() * x.cols());
  if (x.rows() == 0) return out;
  // Feature-at-a-time so each edge array stays hot across the whole column
  // and the multi-probe searches batch rows of equal trip count.
  for (size_t f = 0; f < x.cols(); ++f) {
    binner.BinColumn(f, x.data().data() + f, x.rows(), x.cols(),
                     out.data() + f, x.cols());
  }
  return out;
}

Result<RegressionTree> FitRegressionTree(
    const std::vector<uint16_t>& bins, size_t num_features,
    const FeatureBinner& binner, const std::vector<double>& y,
    const std::vector<uint32_t>& row_indices, const TreeOptions& options,
    Rng* rng) {
  if (row_indices.empty()) {
    return Status::InvalidArgument("RegressionTree::Fit with no rows");
  }
  if (num_features == 0 || bins.size() % num_features != 0) {
    return Status::InvalidArgument("RegressionTree::Fit bad bin buffer");
  }
  std::vector<TreeNode> nodes;
  nodes.push_back({});

  std::vector<uint32_t> idx = row_indices;  // partitioned in place
  std::vector<BuildItem> stack;
  stack.push_back({0, 0, idx.size(), 0});

  const size_t feat_per_split =
      options.feature_fraction <= 0.0
          ? num_features
          : std::max<size_t>(
                1, static_cast<size_t>(
                       std::ceil(options.feature_fraction *
                                 static_cast<double>(num_features))));
  std::vector<size_t> feature_order(num_features);
  std::iota(feature_order.begin(), feature_order.end(), 0);

  while (!stack.empty()) {
    BuildItem item = stack.back();
    stack.pop_back();
    const size_t n_node = item.end - item.begin;

    double sum = 0.0, sum2 = 0.0;
    for (size_t i = item.begin; i < item.end; ++i) {
      const double v = y[idx[i]];
      sum += v;
      sum2 += v * v;
    }
    const double node_mean = sum / static_cast<double>(n_node);
    TreeNode& node = nodes[static_cast<size_t>(item.node)];
    node.value = node_mean;

    const double node_sse = sum2 - sum * sum / static_cast<double>(n_node);
    const bool can_split =
        item.depth < options.max_depth &&
        n_node >= static_cast<size_t>(options.min_samples_split) &&
        node_sse > 1e-12;
    if (!can_split) continue;

    // Sample the features examined at this node (random forests).
    if (feat_per_split < num_features) rng->Shuffle(&feature_order);

    double best_gain = 0.0;
    size_t best_feature = 0;
    uint16_t best_bin = 0;
    for (size_t fi = 0; fi < feat_per_split; ++fi) {
      const size_t f = feature_order[fi];
      const size_t nbins = binner.NumBins(f);
      if (nbins < 2) continue;
      std::vector<BinStats> hist(nbins);
      for (size_t i = item.begin; i < item.end; ++i) {
        const uint32_t r = idx[i];
        BinStats& b = hist[bins[r * num_features + f]];
        b.sum += y[r];
        ++b.count;
      }
      double left_sum = 0.0;
      uint32_t left_count = 0;
      for (size_t b = 0; b + 1 < nbins; ++b) {
        left_sum += hist[b].sum;
        left_count += hist[b].count;
        const uint32_t right_count =
            static_cast<uint32_t>(n_node) - left_count;
        if (left_count < static_cast<uint32_t>(options.min_samples_leaf) ||
            right_count < static_cast<uint32_t>(options.min_samples_leaf)) {
          continue;
        }
        if (left_count == 0 || right_count == 0) continue;
        const double right_sum = sum - left_sum;
        // Variance-reduction gain, constant terms dropped:
        // gain = SL^2/nL + SR^2/nR - S^2/n
        const double gain = left_sum * left_sum / left_count +
                            right_sum * right_sum / right_count -
                            sum * sum / static_cast<double>(n_node);
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_bin = static_cast<uint16_t>(b);
        }
      }
    }
    if (best_gain <= 0.0) continue;

    // Partition rows of this node in place around the chosen split.
    auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(item.begin),
        idx.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](uint32_t r) {
          return bins[r * num_features + best_feature] <= best_bin;
        });
    const size_t mid =
        static_cast<size_t>(mid_it - idx.begin());
    if (mid == item.begin || mid == item.end) continue;  // degenerate

    // push_back may reallocate, so finish all writes through the index
    // rather than the `node` reference.
    const int left_id = static_cast<int>(nodes.size());
    const int right_id = left_id + 1;
    nodes.push_back({});
    nodes.push_back({});
    TreeNode& split_node = nodes[static_cast<size_t>(item.node)];
    split_node.feature = static_cast<int>(best_feature);
    split_node.threshold = binner.UpperEdge(best_feature, best_bin);
    split_node.left = left_id;
    split_node.right = right_id;
    stack.push_back({right_id, mid, item.end, item.depth + 1});
    stack.push_back({left_id, item.begin, mid, item.depth + 1});
  }
  return RegressionTree::FromNodes(std::move(nodes));
}

Result<std::unique_ptr<DecisionTreeRegressor>> FitDecisionTree(
    const Matrix& x, const std::vector<double>& y,
    const DecisionTreeOptions& options) {
  FeatureBinner binner;
  WMP_RETURN_IF_ERROR(binner.Fit(x, options.tree.max_bins));
  WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, BinAll(binner, x));
  std::vector<uint32_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  Rng rng(options.seed);
  WMP_ASSIGN_OR_RETURN(RegressionTree tree,
                       FitRegressionTree(bins, x.cols(), binner, y, rows,
                                         options.tree, &rng));
  return DecisionTreeRegressor::FromTree(std::move(tree), options);
}

Result<std::unique_ptr<RandomForestRegressor>> FitRandomForest(
    const Matrix& x, const std::vector<double>& y,
    const RandomForestOptions& options) {
  FeatureBinner binner;
  WMP_RETURN_IF_ERROR(binner.Fit(x, options.tree.max_bins));
  WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, BinAll(binner, x));

  Rng rng(options.seed);
  const size_t n = x.rows();
  const size_t sample_n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.bootstrap_fraction *
                                          static_cast<double>(n))));
  std::vector<RegressionTree> trees;
  trees.reserve(static_cast<size_t>(options.num_trees));
  std::vector<uint32_t> sample(sample_n);
  for (int t = 0; t < options.num_trees; ++t) {
    for (auto& s : sample) {
      s = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    WMP_ASSIGN_OR_RETURN(RegressionTree tree,
                         FitRegressionTree(bins, x.cols(), binner, y, sample,
                                           options.tree, &rng));
    trees.push_back(std::move(tree));
  }
  return RandomForestRegressor::FromTrees(std::move(trees), options);
}

Result<std::unique_ptr<GbtRegressor>> FitGbt(const Matrix& x,
                                             const std::vector<double>& y,
                                             const GbtOptions& options) {
  FeatureBinner binner;
  WMP_RETURN_IF_ERROR(binner.Fit(x, options.max_bins));
  WMP_ASSIGN_OR_RETURN(std::vector<uint16_t> bins, BinAll(binner, x));

  const size_t n = x.rows();
  double base_score = 0.0;
  for (double v : y) base_score += v;
  base_score /= static_cast<double>(n);

  std::vector<double> pred(n, base_score);
  std::vector<GradHess> gh(n);
  Rng rng(options.seed);
  std::vector<RegressionTree> trees;
  trees.reserve(static_cast<size_t>(options.num_rounds));

  std::vector<uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);

  for (int round = 0; round < options.num_rounds; ++round) {
    // Squared-error loss: g = pred - y, h = 1.
    for (size_t i = 0; i < n; ++i) {
      gh[i].g = pred[i] - y[i];
      gh[i].h = 1.0;
    }
    std::vector<uint32_t> sample;
    if (options.subsample < 1.0) {
      sample.reserve(n);
      for (uint32_t r : all_rows) {
        if (rng.Bernoulli(options.subsample)) sample.push_back(r);
      }
      if (sample.empty()) sample = all_rows;
    } else {
      sample = all_rows;
    }
    GbtTreeBuilder builder(bins, x.cols(), binner, options, &rng);
    RegressionTree tree =
        RegressionTree::FromNodes(builder.Build(gh, std::move(sample)));
    for (size_t i = 0; i < n; ++i) {
      pred[i] += options.learning_rate * tree.Predict(x.RowPtr(i), x.cols());
    }
    trees.push_back(std::move(tree));
  }
  return GbtRegressor::FromTrees(std::move(trees), base_score, options);
}

}  // namespace wmp::ml::reference
