#ifndef WMP_ML_KMEANS_H_
#define WMP_ML_KMEANS_H_

/// \file kmeans.h
/// Lloyd's k-means with k-means++ initialization.
///
/// This is the paper's template learner (Algorithm 1): queries featurized
/// from their plans are clustered, and each cluster is a *query template*.
/// `inertia()` feeds the elbow method the paper uses to tune `k`.
///
/// Pruned, parallel Lloyd. Each iteration builds a CentroidIndex over the
/// current centroids and assigns every row through
/// `CentroidIndex::Nearest`, seeded with the row's previous label; row
/// blocks run on the util::ParallelFor pool, as does the elementwise
/// k-means++ `min_dist` update.
///
/// Bitwise contract. Fit returns the same centroids and inertia, bit for
/// bit, as the plain serial full-scan Lloyd loop (the oracle in
/// tests/reference/reference_kmeans.h), for every thread count: Nearest
/// returns the full scan's label (lowest index on ties) and its exact
/// distance, and every sum (inertia, centroid sums, the k-means++
/// sampling total) and every RNG draw stays serial in row order.

#include <cstdint>
#include <vector>

#include "ml/linalg.h"
#include "util/io.h"
#include "util/status.h"

namespace wmp::ml {

/// Configuration for KMeans::Fit.
struct KMeansOptions {
  int num_clusters = 8;     ///< k; must be >= 1.
  int max_iters = 100;      ///< Lloyd iteration cap.
  double tol = 1e-6;        ///< relative inertia improvement to keep going.
  int n_init = 3;           ///< restarts; best inertia wins (kmeans++ each).
  uint64_t seed = 42;       ///< RNG seed for init and restarts.
};

/// \brief k-means clustering model.
class KMeans {
 public:
  KMeans() = default;

  /// Clusters the rows of `x`. Returns InvalidArgument for empty input,
  /// `num_clusters < 1` or any non-finite value in `x`. If there are fewer
  /// distinct rows than clusters, surplus centroids collapse onto existing
  /// points (still a valid fit).
  Status Fit(const Matrix& x, const KMeansOptions& options);

  /// Index of the nearest centroid for `row`. Requires a prior Fit().
  Result<int> Assign(const std::vector<double>& row) const;

  /// Nearest-centroid labels for every row of `x`. Operates on contiguous
  /// rows and runs row blocks on the worker pool; agrees with per-row
  /// Assign() exactly.
  Result<std::vector<int>> AssignAll(const Matrix& x) const;

  /// Sum of squared distances of training points to their centroid.
  double inertia() const { return inertia_; }

  /// Fitted centroids (k rows).
  const Matrix& centroids() const { return centroids_; }
  int num_clusters() const { return static_cast<int>(centroids_.rows()); }
  bool fitted() const { return centroids_.rows() > 0; }

  void Serialize(BinaryWriter* writer) const;
  static Result<KMeans> Deserialize(BinaryReader* reader);

 private:
  Matrix centroids_;
  double inertia_ = 0.0;
};

/// Reads the centroid layout KMeans and the DBSCAN template model write:
/// rows u64, cols u64, then the row-major values as a double vector. Empty
/// shapes and a value count other than rows * cols are rejected without
/// forming the (possibly overflowing) product.
Result<Matrix> ReadCentroidMatrix(BinaryReader* reader);

/// \brief Runs k-means for each k in `ks` and returns the inertias, the raw
/// material of an elbow plot.
Result<std::vector<double>> KMeansElbowCurve(const Matrix& x,
                                             const std::vector<int>& ks,
                                             const KMeansOptions& base);

/// \brief Picks the elbow from an inertia curve via the maximum-distance-to-
/// chord heuristic. Returns the index into `ks`.
size_t PickElbow(const std::vector<double>& inertias);

}  // namespace wmp::ml

#endif  // WMP_ML_KMEANS_H_
