#include "reference/reference_kmeans.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/random.h"

namespace wmp::ml::reference {

namespace {

// One full k-means++ init followed by Lloyd iterations.
// Returns (centroids, inertia).
std::pair<Matrix, double> RunOnce(const Matrix& x, int k, int max_iters,
                                  double tol, Rng* rng) {
  const size_t n = x.rows(), d = x.cols();
  const size_t kk = static_cast<size_t>(k);
  Matrix centroids(kk, d);

  // --- k-means++ seeding ---
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  size_t first = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  std::copy(x.RowPtr(first), x.RowPtr(first) + d, centroids.RowPtr(0));
  for (size_t c = 1; c < kk; ++c) {
    const double* prev = centroids.RowPtr(c - 1);
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], SquaredDistance(x.RowPtr(i), prev, d));
    }
    double total = 0.0;
    for (double v : min_dist) total += v;
    size_t chosen;
    if (total <= 0.0) {
      chosen = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    } else {
      double r = rng->UniformDouble() * total;
      double acc = 0.0;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (r < acc) {
          chosen = i;
          break;
        }
      }
    }
    std::copy(x.RowPtr(chosen), x.RowPtr(chosen) + d, centroids.RowPtr(c));
  }

  // --- Lloyd iterations ---
  std::vector<int> labels(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();
  double inertia = prev_inertia;
  for (int it = 0; it < max_iters; ++it) {
    inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.RowPtr(i);
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (size_t c = 0; c < kk; ++c) {
        const double dist = SquaredDistance(row, centroids.RowPtr(c), d);
        if (dist < best) {
          best = dist;
          best_c = static_cast<int>(c);
        }
      }
      labels[i] = best_c;
      inertia += best;
    }
    // Recompute centroids.
    Matrix sums(kk, d);
    std::vector<size_t> counts(kk, 0);
    for (size_t i = 0; i < n; ++i) {
      double* srow = sums.RowPtr(static_cast<size_t>(labels[i]));
      const double* row = x.RowPtr(i);
      for (size_t j = 0; j < d; ++j) srow[j] += row[j];
      ++counts[static_cast<size_t>(labels[i])];
    }
    for (size_t c = 0; c < kk; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed on a random point to keep k live clusters.
        size_t p = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
        std::copy(x.RowPtr(p), x.RowPtr(p) + d, centroids.RowPtr(c));
        continue;
      }
      double* crow = centroids.RowPtr(c);
      const double* srow = sums.RowPtr(c);
      for (size_t j = 0; j < d; ++j) {
        crow[j] = srow[j] / static_cast<double>(counts[c]);
      }
    }
    if (prev_inertia - inertia <= tol * std::max(prev_inertia, 1e-12)) break;
    prev_inertia = inertia;
  }
  return {std::move(centroids), inertia};
}

}  // namespace

KMeansFit FullScanKMeans(const Matrix& x, const KMeansOptions& options) {
  const int k =
      std::min<int>(options.num_clusters, static_cast<int>(x.rows()));
  Rng rng(options.seed);
  KMeansFit best;
  best.inertia = std::numeric_limits<double>::max();
  const int restarts = std::max(options.n_init, 1);
  for (int r = 0; r < restarts; ++r) {
    auto [centroids, inertia] =
        RunOnce(x, k, options.max_iters, options.tol, &rng);
    if (inertia < best.inertia) {
      best.inertia = inertia;
      best.centroids = std::move(centroids);
    }
  }
  return best;
}

std::vector<double> FullScanElbowCurve(const Matrix& x,
                                       const std::vector<int>& ks,
                                       const KMeansOptions& base) {
  std::vector<double> inertias;
  inertias.reserve(ks.size());
  for (int k : ks) {
    KMeansOptions opt = base;
    opt.num_clusters = k;
    inertias.push_back(FullScanKMeans(x, opt).inertia);
  }
  return inertias;
}

}  // namespace wmp::ml::reference
