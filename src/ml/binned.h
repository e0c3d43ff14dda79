#ifndef WMP_ML_BINNED_H_
#define WMP_ML_BINNED_H_

/// \file binned.h
/// Shared binning infrastructure for the histogram tree family.
///
/// `FeatureBinner` quantile-bins continuous features; `BinnedDataset` stores
/// the binned design feature-major (column-contiguous) so per-feature
/// histogram builds are sequential scans instead of stride-`d` walks, using
/// `uint8_t` bin indices whenever every feature has at most 256 buckets
/// (the default `max_bins = 64` qualifies, halving the buffer and doubling
/// cache density versus row-major `uint16_t`). `HistogramPool` recycles
/// fixed-size histogram buffers across tree nodes so steady-state growth
/// performs zero per-node heap allocations, and `BinnedDatasetCache` lets
/// several tree learners trained on the same design matrix bin it once.
/// The row-major `uint16_t` layout the direct (reference) builders consume
/// lives with them in the test-only library under tests/reference/.

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/linalg.h"
#include "util/status.h"

namespace wmp::ml {

/// \brief Quantile binning of continuous features into at most `max_bins`
/// buckets per feature.
class FeatureBinner {
 public:
  /// Computes per-feature bin edges from the rows of `x`.
  /// \param max_bins  upper bound on buckets per feature (2..65535).
  Status Fit(const Matrix& x, int max_bins = 64);

  /// Wraps externally supplied cut points (each inner vector strictly
  /// increasing; empty = single-bin feature). The compiled tree backend
  /// (ml/compiled_tree.h) rebuilds its bin space from the thresholds stored
  /// in a fitted ensemble through this, so bin-space prediction needs no
  /// access to the training-time binner.
  static FeatureBinner FromEdges(std::vector<std::vector<double>> edges);

  /// Bin index of `value` for feature `f` (0-based, < NumBins(f)).
  uint16_t BinValue(size_t f, double value) const;

  /// \name Multi-probe batch binning — the binning hot path.
  ///
  /// Bins `n` values of feature `f`, reading `values[i * value_stride]` and
  /// writing `out[i * out_stride]`. Features with enough edges carry a
  /// radix bucket index (built once at Fit/FromEdges): a uniform bucket
  /// grid over [first_edge, last_edge] whose prefix array confines each
  /// value's lower bound to the few edges of its bucket, collapsing the
  /// per-value search from log2(edges) dependent steps to O(1) expected.
  /// Features below the radix threshold (and values only there) take four
  /// independent branchless lower-bound searches run interleaved: they
  /// probe the same edge array, so every probe has the identical
  /// (data-independent) trip count and the four cmov chains overlap in
  /// flight instead of serializing on load latency. Either path is
  /// bitwise-equal to calling BinValue per element (binning_test asserts
  /// this exhaustively). The u8 overload requires NumBins(f) <= 256.
  /// @{
  void BinColumn(size_t f, const double* values, size_t n, size_t value_stride,
                 uint16_t* out, size_t out_stride) const;
  void BinColumn(size_t f, const double* values, size_t n, size_t value_stride,
                 uint8_t* out, size_t out_stride) const;
  /// @}

  /// Number of buckets for feature `f`.
  size_t NumBins(size_t f) const { return edges_[f].size() + 1; }
  size_t num_features() const { return edges_.size(); }
  bool fitted() const { return !edges_.empty(); }

  /// Upper edge of bucket `bin` for feature `f` — the raw-value threshold a
  /// tree node stores so prediction never needs the binner. Splitting at
  /// bin `b` sends `value <= UpperEdge(f, b)` left, which is exactly
  /// `BinValue(f, value) <= b`: bin-space and raw-space traversal agree.
  double UpperEdge(size_t f, size_t bin) const { return edges_[f][bin]; }

 private:
  /// Radix bucket index over one feature's sorted edges: bucket(v) =
  /// clamp(trunc((v - min_edge) * scale)) is monotone non-decreasing in v
  /// (IEEE subtract and multiply by a positive finite scale preserve
  /// order, truncation and clamping are monotone), so for sorted edges the
  /// bucket sequence is non-decreasing and `lo[b]` — the count of edges in
  /// buckets < b — brackets every value's lower bound: edges before lo[b]
  /// are < v, edges from lo[b + 1] are >= v, hence the global answer lies
  /// in [lo[b], lo[b + 1]] and a sub-range search returns the IDENTICAL
  /// index (lower bounds are unique). Values outside [min, max] clamp to
  /// the end buckets; NaN fails the `> 0` guard and lands in bucket 0,
  /// whose sub-range reproduces the scalar search's 0. Built only when a
  /// feature has enough edges to beat the plain search; `usable == false`
  /// (few edges, zero span, non-finite edges) falls back to multi-probe.
  struct RadixBuckets {
    double min_edge = 0.0;
    double scale = 0.0;
    uint32_t nbuckets = 0;
    std::vector<uint32_t> lo;  ///< nbuckets + 1 prefix counts
    bool usable = false;
  };

  /// Rebuilds radix_ from edges_ (Fit and FromEdges both end here).
  void BuildRadixIndexes();

  // edges_[f] is a sorted list of cut points; value <= edges_[f][i] and
  // > edges_[f][i-1] falls in bin i; values above the last edge fall in the
  // final bin.
  std::vector<std::vector<double>> edges_;
  std::vector<RadixBuckets> radix_;  // parallel to edges_
};

/// \brief Feature-major binned design matrix shared by the tree trainers.
///
/// Column `f` is the contiguous `num_rows()`-length array of bin indices of
/// feature `f`; per-feature bucket counts and their prefix sums are baked in
/// so a histogram covering all features is one flat `total_bins()` buffer.
///
/// A row-major mirror of the bins is kept alongside the columns: histogram
/// builds walk a node's rows once and update every examined feature's
/// segment from the row's contiguous bin line (one gradient/target gather
/// and one ~d-byte line per row instead of one gather per row *per
/// feature*), while split partitions read the single split feature through
/// its compact column. Each access pattern gets the layout it is fastest
/// on, and at `uint8_t` width (the default) the two copies together cost
/// exactly what the single row-major `uint16_t` buffer used to.
class BinnedDataset {
 public:
  /// Fits a FeatureBinner on `x` and bins every column.
  static Result<BinnedDataset> Build(const Matrix& x, int max_bins = 64);

  size_t num_rows() const { return n_; }
  size_t num_features() const { return d_; }
  int max_bins() const { return max_bins_; }

  /// True when bins are stored as `uint8_t` (every feature has <= 256
  /// buckets); false selects the `uint16_t` columns/rows.
  bool narrow() const { return narrow_; }
  const uint8_t* Column8(size_t f) const { return bins8_.data() + f * n_; }
  const uint16_t* Column16(size_t f) const { return bins16_.data() + f * n_; }
  /// Row `r`'s bin line in the row-major mirror (histogram-build path).
  const uint8_t* Row8(size_t r) const { return rows8_.data() + r * d_; }
  const uint16_t* Row16(size_t r) const { return rows16_.data() + r * d_; }

  /// Bin of (row, feature) regardless of storage width.
  uint32_t BinAt(size_t r, size_t f) const {
    return narrow_ ? Column8(f)[r] : Column16(f)[r];
  }

  uint32_t NumBins(size_t f) const { return num_bins_[f]; }
  /// Offset of feature `f`'s segment inside a flat all-feature histogram.
  uint32_t BinOffset(size_t f) const { return bin_offsets_[f]; }
  /// Flat histogram length: sum of per-feature bucket counts.
  uint32_t total_bins() const { return bin_offsets_[d_]; }

  const FeatureBinner& binner() const { return binner_; }

 private:
  FeatureBinner binner_;
  size_t n_ = 0;
  size_t d_ = 0;
  int max_bins_ = 0;
  bool narrow_ = true;
  std::vector<uint8_t> bins8_;    // feature-major, f * n_ + r
  std::vector<uint16_t> bins16_;  // populated instead when !narrow_
  std::vector<uint8_t> rows8_;    // row-major mirror, r * d_ + f
  std::vector<uint16_t> rows16_;  // populated instead when !narrow_
  std::vector<uint32_t> num_bins_;     // per feature
  std::vector<uint32_t> bin_offsets_;  // d_ + 1 prefix sums
};

/// Instrumentation shared by the tree growers (ml/tree_grower.h);
/// cumulative across Grow() calls of one grower.
struct TreeGrowerStats {
  size_t nodes_built = 0;            ///< total nodes over all grown trees
  size_t histograms_scanned = 0;     ///< histograms built by scanning rows
  size_t histograms_subtracted = 0;  ///< histograms derived from the sibling
  size_t pool_allocations = 0;       ///< histogram buffers ever heap-allocated
  size_t pool_slots = 0;  ///< live pool buffers (bounded by depth + 2)
};

/// \brief Pool of fixed-size histogram buffers keyed by small slot ids.
///
/// Tree growth holds one slot per pending node (bounded by tree depth, not
/// node count); slots are recycled through a free list, so after the first
/// few nodes of the first tree reach a new depth, Acquire/Release never
/// touch the heap again — the zero-per-node-allocation contract of the
/// histogram engine. `allocations()` counts buffers ever created, which the
/// tests bound by `max_depth + 2`.
template <typename Stat>
class HistogramPool {
 public:
  /// Sets the per-slot entry count. Keeps existing buffers when unchanged,
  /// so re-configuring per tree (RF, GBT rounds) costs nothing.
  void Configure(size_t slot_size) {
    if (slot_size != slot_size_) {
      slots_.clear();
      free_.clear();
      slot_size_ = slot_size;
    }
  }

  int Acquire() {
    if (free_.empty()) {
      slots_.emplace_back(slot_size_);
      ++allocations_;
      free_.push_back(static_cast<int>(slots_.size()) - 1);
    }
    const int s = free_.back();
    free_.pop_back();
    return s;
  }

  void Release(int s) { free_.push_back(s); }

  /// Stable across Acquire/Release (inner buffers never move).
  Stat* Slot(int s) { return slots_[static_cast<size_t>(s)].data(); }

  size_t allocations() const { return allocations_; }
  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<std::vector<Stat>> slots_;
  std::vector<int> free_;
  size_t slot_size_ = 0;
  size_t allocations_ = 0;
};

/// \brief Build-once cache of BinnedDatasets keyed by design-matrix content.
///
/// The experiment harness trains DT, RF, and GBT candidates on the same
/// design matrix; routing their fits through one cache bins the matrix once
/// instead of once per family. Entries are keyed by shape, `max_bins`, and
/// a content hash, so distinct designs coexist safely. Not thread-safe:
/// intended for the (single-threaded) training side.
class BinnedDatasetCache {
 public:
  /// Returns the dataset for (`x`, `max_bins`), building it on first use.
  /// The pointer stays valid for the cache's lifetime.
  Result<const BinnedDataset*> Get(const Matrix& x, int max_bins);

  size_t builds() const { return builds_; }
  size_t hits() const { return hits_; }

 private:
  struct Entry {
    uint64_t key = 0;
    std::unique_ptr<BinnedDataset> data;
  };
  std::vector<Entry> entries_;
  size_t builds_ = 0;
  size_t hits_ = 0;
};

}  // namespace wmp::ml

#endif  // WMP_ML_BINNED_H_
