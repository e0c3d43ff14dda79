#include "ml/binned.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace wmp::ml {

Status FeatureBinner::Fit(const Matrix& x, int max_bins) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("FeatureBinner::Fit on empty matrix");
  }
  if (max_bins < 2 || max_bins > 65535) {
    return Status::InvalidArgument("max_bins must be in [2, 65535]");
  }
  const size_t n = x.rows(), d = x.cols();
  edges_.assign(d, {});
  std::vector<double> col(n);
  for (size_t f = 0; f < d; ++f) {
    for (size_t r = 0; r < n; ++r) col[r] = x.At(r, f);
    std::sort(col.begin(), col.end());
    std::vector<double>& edges = edges_[f];
    // Quantile cut points; duplicates collapse so constant features get a
    // single bin.
    for (int b = 1; b < max_bins; ++b) {
      const size_t idx = std::min(
          n - 1, static_cast<size_t>(static_cast<double>(b) *
                                     static_cast<double>(n) / max_bins));
      const double v = col[idx];
      if (edges.empty() || v > edges.back()) edges.push_back(v);
    }
    // Drop a trailing edge equal to the max so the last bin is non-empty.
    while (!edges.empty() && edges.back() >= col.back()) edges.pop_back();
  }
  BuildRadixIndexes();
  return Status::OK();
}

FeatureBinner FeatureBinner::FromEdges(
    std::vector<std::vector<double>> edges) {
  FeatureBinner binner;
  binner.edges_ = std::move(edges);
  binner.BuildRadixIndexes();
  return binner;
}

void FeatureBinner::BuildRadixIndexes() {
  // Below this the log2(edges) cmov chain is already a handful of steps
  // and the bucket arithmetic would not pay for itself.
  constexpr size_t kMinEdgesForRadix = 8;
  radix_.assign(edges_.size(), {});
  for (size_t f = 0; f < edges_.size(); ++f) {
    const std::vector<double>& edges = edges_[f];
    RadixBuckets& radix = radix_[f];
    if (edges.size() < kMinEdgesForRadix) continue;
    const double lo_edge = edges.front();
    const double hi_edge = edges.back();
    const double span = hi_edge - lo_edge;
    if (!std::isfinite(span) || span <= 0.0) continue;
    // ~2 buckets per edge: expected occupancy 0.5, so most sub-range
    // searches inspect zero or one edge.
    const uint32_t nbuckets = static_cast<uint32_t>(
        std::min<size_t>(2 * edges.size(), 1u << 16));
    const double scale = static_cast<double>(nbuckets) / span;
    if (!std::isfinite(scale) || scale <= 0.0) continue;
    radix.min_edge = lo_edge;
    radix.scale = scale;
    radix.nbuckets = nbuckets;
    radix.lo.assign(nbuckets + 1, 0);
    // Count edges per bucket, then prefix-sum: lo[b] = edges in buckets
    // < b. The bucket formula here MUST match the lookup's exactly —
    // shared bucket math is what makes the bracketing airtight.
    for (const double edge : edges) {
      const double t = (edge - lo_edge) * scale;
      uint32_t b = 0;
      if (t > 0.0) {
        b = (t >= static_cast<double>(nbuckets)) ? nbuckets - 1
                                                 : static_cast<uint32_t>(t);
      }
      ++radix.lo[b + 1];
    }
    for (uint32_t b = 0; b < nbuckets; ++b) radix.lo[b + 1] += radix.lo[b];
    radix.usable = true;
  }
}

namespace {

// Branchless lower bound over a sorted edge array: the bin of `value` is
// the index of the first edge >= value. BinnedDataset::Build calls this
// once per (row, feature) — with tree growth now histogram-based, this
// search IS the binning phase (train_throughput's bin_ms), and the
// classic std::lower_bound loop spends it on unpredictable compare
// branches (each quantile edge is a coin flip by construction). The
// halving step below has no branch on the comparison: the compiler turns
// `base += (cond ? half : 0)` into a cmov, so the only control flow is
// the length countdown, which is data-independent and predicted
// perfectly. Result is identical to std::lower_bound for every input
// (checked exhaustively in tests/binning_test.cc) — bitwise-equal models.
inline size_t LowerBoundIndex(const double* edges, size_t n, double value) {
  const double* base = edges;
  while (n > 1) {
    const size_t half = n / 2;
    base += (base[half - 1] < value) ? half : 0;  // cmov, not a branch
    n -= half;
  }
  return static_cast<size_t>(base - edges) +
         ((n == 1 && *base < value) ? 1 : 0);
}

// Four LowerBoundIndex searches over the SAME edge array, interleaved.
// Each probe alone is a serial chain of dependent cmov+load steps (the
// next halving can't start before the previous compare's load resolves);
// batching four values gives the core four independent chains to overlap,
// which is where the multi-probe throughput comes from. All four probes
// share the trip count — it depends only on the edge count — so there is
// no divergence to mask. Step-for-step identical arithmetic to the scalar
// search: the results are the same indices, not merely close.
inline void LowerBound4(const double* edges, size_t n, const double* v,
                        size_t* out) {
  const double* b0 = edges;
  const double* b1 = edges;
  const double* b2 = edges;
  const double* b3 = edges;
  size_t m = n;
  while (m > 1) {
    const size_t half = m / 2;
    b0 += (b0[half - 1] < v[0]) ? half : 0;
    b1 += (b1[half - 1] < v[1]) ? half : 0;
    b2 += (b2[half - 1] < v[2]) ? half : 0;
    b3 += (b3[half - 1] < v[3]) ? half : 0;
    m -= half;
  }
  const bool tail = (m == 1);
  out[0] = static_cast<size_t>(b0 - edges) + ((tail && *b0 < v[0]) ? 1 : 0);
  out[1] = static_cast<size_t>(b1 - edges) + ((tail && *b1 < v[1]) ? 1 : 0);
  out[2] = static_cast<size_t>(b2 - edges) + ((tail && *b2 < v[2]) ? 1 : 0);
  out[3] = static_cast<size_t>(b3 - edges) + ((tail && *b3 < v[3]) ? 1 : 0);
}

// Borrowed view of a feature's radix bucket index (the owning struct is
// private to FeatureBinner; the members pass this through).
struct RadixView {
  bool usable = false;
  double min_edge = 0.0;
  double scale = 0.0;
  uint32_t nbuckets = 0;
  const uint32_t* lo = nullptr;
};

// Bucket of `value` under the grid — the exact arithmetic the index was
// built with. The `> 0` guard routes NaN and everything below the first
// edge to bucket 0 without ever casting a non-finite double to integer.
inline uint32_t RadixBucket(const RadixView& radix, double value) {
  const double t = (value - radix.min_edge) * radix.scale;
  if (!(t > 0.0)) return 0;
  if (t >= static_cast<double>(radix.nbuckets)) return radix.nbuckets - 1;
  return static_cast<uint32_t>(t);
}

// Radix-narrowed lower bound: identical index to LowerBoundIndex over the
// full array, found by searching only the value's bucket sub-range.
inline size_t RadixLowerBound(const double* edges, const RadixView& radix,
                              double value) {
  const uint32_t b = RadixBucket(radix, value);
  const uint32_t lo = radix.lo[b];
  return lo + LowerBoundIndex(edges + lo, radix.lo[b + 1] - lo, value);
}

// Strided multi-probe column binning shared by the u8 and u16 outputs.
template <typename Out>
void BinColumnImpl(const std::vector<double>& edges, const RadixView& radix,
                   const double* values, size_t n, size_t value_stride,
                   Out* out, size_t out_stride) {
  const double* e = edges.data();
  const size_t ne = edges.size();
  size_t i = 0;
  if (radix.usable) {
    // Expected sub-range length is under one edge (~2 buckets per edge),
    // so each lookup is bucket arithmetic + a couple of loads; unroll by
    // four anyway so the bucket computes and prefix loads overlap.
    for (; i + 4 <= n; i += 4) {
      out[(i + 0) * out_stride] = static_cast<Out>(
          RadixLowerBound(e, radix, values[(i + 0) * value_stride]));
      out[(i + 1) * out_stride] = static_cast<Out>(
          RadixLowerBound(e, radix, values[(i + 1) * value_stride]));
      out[(i + 2) * out_stride] = static_cast<Out>(
          RadixLowerBound(e, radix, values[(i + 2) * value_stride]));
      out[(i + 3) * out_stride] = static_cast<Out>(
          RadixLowerBound(e, radix, values[(i + 3) * value_stride]));
    }
    for (; i < n; ++i) {
      out[i * out_stride] = static_cast<Out>(
          RadixLowerBound(e, radix, values[i * value_stride]));
    }
    return;
  }
  double v[4];
  size_t idx[4];
  for (; i + 4 <= n; i += 4) {
    v[0] = values[(i + 0) * value_stride];
    v[1] = values[(i + 1) * value_stride];
    v[2] = values[(i + 2) * value_stride];
    v[3] = values[(i + 3) * value_stride];
    LowerBound4(e, ne, v, idx);
    out[(i + 0) * out_stride] = static_cast<Out>(idx[0]);
    out[(i + 1) * out_stride] = static_cast<Out>(idx[1]);
    out[(i + 2) * out_stride] = static_cast<Out>(idx[2]);
    out[(i + 3) * out_stride] = static_cast<Out>(idx[3]);
  }
  for (; i < n; ++i) {
    out[i * out_stride] = static_cast<Out>(
        LowerBoundIndex(e, ne, values[i * value_stride]));
  }
}

}  // namespace

uint16_t FeatureBinner::BinValue(size_t f, double value) const {
  const std::vector<double>& edges = edges_[f];
  return static_cast<uint16_t>(
      LowerBoundIndex(edges.data(), edges.size(), value));
}

namespace {

template <typename Radix>
RadixView ViewOf(const Radix& radix) {
  RadixView view;
  view.usable = radix.usable;
  view.min_edge = radix.min_edge;
  view.scale = radix.scale;
  view.nbuckets = radix.nbuckets;
  view.lo = radix.lo.data();
  return view;
}

}  // namespace

void FeatureBinner::BinColumn(size_t f, const double* values, size_t n,
                              size_t value_stride, uint16_t* out,
                              size_t out_stride) const {
  BinColumnImpl(edges_[f], ViewOf(radix_[f]), values, n, value_stride, out,
                out_stride);
}

void FeatureBinner::BinColumn(size_t f, const double* values, size_t n,
                              size_t value_stride, uint8_t* out,
                              size_t out_stride) const {
  BinColumnImpl(edges_[f], ViewOf(radix_[f]), values, n, value_stride, out,
                out_stride);
}

Result<BinnedDataset> BinnedDataset::Build(const Matrix& x, int max_bins) {
  BinnedDataset data;
  WMP_RETURN_IF_ERROR(data.binner_.Fit(x, max_bins));
  data.n_ = x.rows();
  data.d_ = x.cols();
  data.max_bins_ = max_bins;
  data.num_bins_.resize(data.d_);
  data.bin_offsets_.assign(data.d_ + 1, 0);
  uint32_t widest = 0;
  for (size_t f = 0; f < data.d_; ++f) {
    const uint32_t nb = static_cast<uint32_t>(data.binner_.NumBins(f));
    data.num_bins_[f] = nb;
    data.bin_offsets_[f + 1] = data.bin_offsets_[f] + nb;
    widest = std::max(widest, nb);
  }
  data.narrow_ = widest <= 256;
  if (data.narrow_) {
    data.bins8_.resize(data.n_ * data.d_);
    data.rows8_.resize(data.n_ * data.d_);
  } else {
    data.bins16_.resize(data.n_ * data.d_);
    data.rows16_.resize(data.n_ * data.d_);
  }
  // Column-contiguous fill: one feature at a time so the per-feature bin
  // search stays warm and the multi-probe searches batch four rows of the
  // same feature (equal trip counts, four overlapping cmov chains); the
  // row-major mirror is scattered from the finished column afterwards so
  // the search loop's write stream stays purely sequential.
  for (size_t f = 0; f < data.d_; ++f) {
    const double* vals = x.data().data() + f;
    if (data.narrow_) {
      uint8_t* col = data.bins8_.data() + f * data.n_;
      data.binner_.BinColumn(f, vals, data.n_, data.d_, col, 1);
      for (size_t r = 0; r < data.n_; ++r) {
        data.rows8_[r * data.d_ + f] = col[r];
      }
    } else {
      uint16_t* col = data.bins16_.data() + f * data.n_;
      data.binner_.BinColumn(f, vals, data.n_, data.d_, col, 1);
      for (size_t r = 0; r < data.n_; ++r) {
        data.rows16_[r * data.d_ + f] = col[r];
      }
    }
  }
  return data;
}

Result<const BinnedDataset*> BinnedDatasetCache::Get(const Matrix& x,
                                                     int max_bins) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("BinnedDatasetCache::Get on empty matrix");
  }
  uint64_t key = util::HashBytes(x.data().data(),
                                 x.data().size() * sizeof(double),
                                 0x42494E4E45444453ull);  // "BINNEDDS"
  key = util::Mix64(key ^ (static_cast<uint64_t>(x.rows()) << 20) ^
                    (static_cast<uint64_t>(x.cols()) << 4) ^
                    static_cast<uint64_t>(max_bins));
  for (const Entry& e : entries_) {
    if (e.key == key && e.data->num_rows() == x.rows() &&
        e.data->num_features() == x.cols() && e.data->max_bins() == max_bins) {
      ++hits_;
      return e.data.get();
    }
  }
  WMP_ASSIGN_OR_RETURN(BinnedDataset built, BinnedDataset::Build(x, max_bins));
  entries_.push_back({key, std::make_unique<BinnedDataset>(std::move(built))});
  ++builds_;
  return entries_.back().data.get();
}

}  // namespace wmp::ml
