#ifndef WMP_ML_CENTROID_INDEX_H_
#define WMP_ML_CENTROID_INDEX_H_

/// \file centroid_index.h
/// Exact pruned nearest-centroid assignment.
///
/// `NearestCentroids` (linalg.h) scans every (row, centroid) pair at full
/// dimensionality. For the serving cold path — thousands of rows against a
/// few dozen k-means templates per batch — most of that work is provably
/// unnecessary. CentroidIndex prunes it with two classic bounds while
/// keeping the *assignments bitwise identical* to the full scan:
///
///  1. Partial-distance early exit. Distances accumulate in the same four
///     non-negative accumulator chains as `SquaredDistanceScalar`. IEEE
///     addition of non-negative terms is monotone, so any partial
///     reduction `((s0+s1)+(s2+s3))` is <= the final value *in the same
///     rounding regime*; once the partial exceeds the current best the
///     candidate provably loses and the scan abandons it. A candidate that
///     survives runs the identical operation sequence to the reference
///     kernel, so its final distance is bit-for-bit the same.
///  2. Elkan-style centroid-centroid bounds. By the triangle inequality a
///     centroid `c` with `dist(best, c) >= 2 * dist(x, best)` cannot beat
///     the current best; in squared terms `ccdist^2/4 >= best^2`. The
///     precomputed quarter-distances carry ~1e-14 relative floating-point
///     error, so the skip test demands a 1e-6 relative margin — vastly
///     wider than the error, vastly tighter than any prunable gap — making
///     the skip decision exact. Duplicate centroids (ccdist == 0) are
///     never skipped and resolve by index order like the reference scan.
///
/// Each row's scan starts from a seed centroid, and a tie-aware update rule
/// (`d < best || (d == best && c < best_label)`) preserves the reference
/// semantics of "lowest index attaining the minimum" whatever the seed.
/// `Nearest` is the one per-row scan; its two callers differ only in the
/// seed. Serving (`Assign`) seeds each row with the previous row's winner,
/// since rows within a batch tend to repeat templates. k-means training
/// (kmeans.cc) seeds each row with its label from the previous Lloyd
/// iteration, since most rows keep their cluster.
///
/// `NearestCentroids` stays in linalg.h as the reference oracle; the tests
/// and the featurize-throughput bench assert label-for-label equality.

#include <cstddef>
#include <cstdint>

#include "ml/linalg.h"

namespace wmp::ml {

/// \brief Pruned batch assignment against a fixed centroid matrix.
class CentroidIndex {
 public:
  /// Copies `centroids` and precomputes the k x k quarter squared
  /// distances. Cost O(k^2 d); build once per trained model.
  explicit CentroidIndex(const Matrix& centroids);

  /// Pruning counters for one Assign call (monotone totals when reused).
  struct AssignStats {
    uint64_t rows = 0;
    /// Candidates skipped by the centroid-centroid bound (no distance
    /// arithmetic at all).
    uint64_t bound_skips = 0;
    /// Candidates abandoned mid-distance by the partial-sum test.
    uint64_t early_exits = 0;
    /// Distances computed to completion.
    uint64_t full_distances = 0;
  };

  /// Writes the nearest-centroid label of each of the `n` row-major rows
  /// into `labels`. Bitwise-identical to `NearestCentroids` on the same
  /// inputs. `stats`, when non-null, is accumulated into (not reset).
  void Assign(const double* rows, size_t n, int* labels,
              AssignStats* stats = nullptr) const;

  /// Nearest centroid of one row (`dim()` values), scanning from centroid
  /// `seed` in [0, k). Returns what the full scan returns: the lowest index
  /// attaining the minimum squared distance, and writes that minimum,
  /// bit for bit, to `*distance`. As in the full scan, a row whose every
  /// distance is >= DBL_MAX gets label 0 and distance DBL_MAX. The seed
  /// changes only how much is pruned. When `stats` is non-null its pruning
  /// counters are accumulated into; its `rows` count is left to the caller.
  int Nearest(const double* row, int seed, double* distance,
              AssignStats* stats) const;

  const Matrix& centroids() const { return centroids_; }
  size_t num_centroids() const { return centroids_.rows(); }
  size_t dim() const { return centroids_.cols(); }

 private:
  Matrix centroids_;
  /// Row-major k x k: SquaredDistance(c_i, c_j) / 4.
  std::vector<double> quarter_cc_;
};

/// Partial-distance variant of `SquaredDistanceScalar`: returns the exact
/// scalar-kernel value, unless a monotone partial sum already exceeds
/// `bound`, in which case it returns +infinity (the candidate provably
/// loses; the true distance is > bound). Exposed for the tests.
double SquaredDistanceEarlyExit(const double* a, const double* b, size_t n,
                                double bound);

}  // namespace wmp::ml

#endif  // WMP_ML_CENTROID_INDEX_H_
