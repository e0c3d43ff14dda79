#ifndef WMP_TESTS_REFERENCE_REFERENCE_KMEANS_H_
#define WMP_TESTS_REFERENCE_REFERENCE_KMEANS_H_

/// \file reference_kmeans.h
/// The serial full-scan Lloyd loop, kept as the oracle ml::KMeans is held
/// to. Every iteration computes every (row, centroid) distance on the
/// calling thread; ml::KMeans prunes that scan through ml::CentroidIndex and
/// runs it on the worker pool, and must return the same centroids and
/// inertia bit for bit. Production training never runs it; the clustering
/// tests do.

#include <vector>

#include "ml/kmeans.h"
#include "ml/linalg.h"

namespace wmp::ml::reference {

/// Centroids and inertia of the best restart.
struct KMeansFit {
  Matrix centroids;
  double inertia = 0.0;
};

/// KMeans::Fit's restart loop over the full-scan Lloyd iterations. Expects
/// input KMeans::Fit accepts (non-empty, finite, `num_clusters >= 1`).
KMeansFit FullScanKMeans(const Matrix& x, const KMeansOptions& options);

/// KMeansElbowCurve over FullScanKMeans.
std::vector<double> FullScanElbowCurve(const Matrix& x,
                                       const std::vector<int>& ks,
                                       const KMeansOptions& base);

}  // namespace wmp::ml::reference

#endif  // WMP_TESTS_REFERENCE_REFERENCE_KMEANS_H_
