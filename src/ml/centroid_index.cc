#include "ml/centroid_index.h"

#include <limits>

namespace wmp::ml {

namespace {

/// Relative margin for the centroid-centroid skip test. The quarter
/// distances and the running best each carry O(d * 2^-52) ~ 1e-14 relative
/// rounding error; 1e-6 dwarfs that, so `quarter > best * kBoundSlack`
/// implies the exact inequality and the skip is provably safe.
constexpr double kBoundSlack = 1.0 + 1e-6;

}  // namespace

double SquaredDistanceEarlyExit(const double* a, const double* b, size_t n,
                                double bound) {
  // Mirrors SquaredDistanceScalar exactly: same four accumulator chains,
  // same ((s0+s1)+(s2+s3))+tail reduction. The only addition is a periodic
  // partial check; partial sums of non-negative terms are monotone under
  // IEEE rounding, so partial > bound implies final > bound.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  size_t next_check = 8;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    s0 += d0 * d0;
    const double d1 = a[i + 1] - b[i + 1];
    s1 += d1 * d1;
    const double d2 = a[i + 2] - b[i + 2];
    s2 += d2 * d2;
    const double d3 = a[i + 3] - b[i + 3];
    s3 += d3 * d3;
    if (i + 4 >= next_check) {
      if (((s0 + s1) + (s2 + s3)) > bound) {
        return std::numeric_limits<double>::infinity();
      }
      next_check += 8;
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}

CentroidIndex::CentroidIndex(const Matrix& centroids) : centroids_(centroids) {
  const size_t k = centroids_.rows(), d = centroids_.cols();
  quarter_cc_.assign(k * k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      // Division by 4 is exact in binary floating point.
      const double q =
          SquaredDistance(centroids_.RowPtr(i), centroids_.RowPtr(j), d) / 4.0;
      quarter_cc_[i * k + j] = q;
      quarter_cc_[j * k + i] = q;
    }
  }
}

int CentroidIndex::Nearest(const double* row, int seed, double* distance,
                           AssignStats* stats) const {
  const size_t k = centroids_.rows(), d = centroids_.cols();
  int best_label = seed;
  double best =
      SquaredDistance(row, centroids_.RowPtr(static_cast<size_t>(seed)), d);
  // Counted in locals and added once: increments through `stats` inside
  // the loop would chain every candidate through memory.
  uint64_t bound_skips = 0, early_exits = 0, full_distances = 1;
  const double* quarter_row =
      quarter_cc_.data() + static_cast<size_t>(best_label) * k;
  for (size_t c = 0; c < k; ++c) {
    if (static_cast<int>(c) == seed) continue;
    if (quarter_row[c] > best * kBoundSlack) {
      ++bound_skips;
      continue;
    }
    const double dist =
        SquaredDistanceEarlyExit(row, centroids_.RowPtr(c), d, best);
    if (dist == std::numeric_limits<double>::infinity()) {
      ++early_exits;
      continue;
    }
    ++full_distances;
    const int ci = static_cast<int>(c);
    // Tie-aware: the reference scan keeps the lowest index attaining the
    // minimum; under seeding the current holder may have a higher index
    // than a tied candidate.
    if (dist < best || (dist == best && ci < best_label)) {
      best = dist;
      best_label = ci;
      quarter_row = quarter_cc_.data() + static_cast<size_t>(best_label) * k;
    }
  }
  if (stats != nullptr) {
    stats->bound_skips += bound_skips;
    stats->early_exits += early_exits;
    stats->full_distances += full_distances;
  }
  // The reference scan starts from best = DBL_MAX and takes only strictly
  // smaller distances, so a row that overflows against every centroid
  // stays at label 0.
  if (!(best < std::numeric_limits<double>::max())) {
    best = std::numeric_limits<double>::max();
    best_label = 0;
  }
  *distance = best;
  return best_label;
}

void CentroidIndex::Assign(const double* rows, size_t n, int* labels,
                           AssignStats* stats) const {
  const size_t d = centroids_.cols();
  if (centroids_.rows() == 0) return;
  AssignStats local;
  int prev = 0;
  double distance;
  for (size_t r = 0; r < n; ++r) {
    // Seed with the previous row's winner: batches repeat templates, so
    // this usually starts the scan with a tight best and lets the bounds
    // reject most of the other centroids outright.
    prev = Nearest(rows + r * d, prev, &distance, &local);
    labels[r] = prev;
  }
  local.rows += n;
  if (stats != nullptr) {
    stats->rows += local.rows;
    stats->bound_skips += local.bound_skips;
    stats->early_exits += local.early_exits;
    stats->full_distances += local.full_distances;
  }
}

}  // namespace wmp::ml
