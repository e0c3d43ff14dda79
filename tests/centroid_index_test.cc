// CentroidIndex must agree label-for-label with the NearestCentroids
// reference scan on every input — including adversarial ties, duplicate
// centroids, and coincident rows — since downstream histograms feed a
// regressor whose output the serving layer promises to be bitwise stable.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ml/centroid_index.h"
#include "ml/linalg.h"
#include "util/random.h"

namespace wmp::ml {
namespace {

std::vector<int> ReferenceLabels(const std::vector<double>& rows, size_t n,
                                 const Matrix& centroids) {
  std::vector<int> labels(n, -1);
  NearestCentroids(rows.data(), n, centroids, labels.data());
  return labels;
}

std::vector<int> PrunedLabels(const std::vector<double>& rows, size_t n,
                              const Matrix& centroids,
                              CentroidIndex::AssignStats* stats = nullptr) {
  CentroidIndex index(centroids);
  std::vector<int> labels(n, -1);
  index.Assign(rows.data(), n, labels.data(), stats);
  return labels;
}

TEST(EarlyExitDistanceTest, MatchesScalarKernelWhenNotAborted) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.UniformDouble(-5.0, 5.0);
      b[i] = rng.UniformDouble(-5.0, 5.0);
    }
    const double ref = SquaredDistanceScalar(a.data(), b.data(), n);
    const double got = SquaredDistanceEarlyExit(
        a.data(), b.data(), n, std::numeric_limits<double>::max());
    // Bitwise, not approximately.
    EXPECT_EQ(ref, got) << "n=" << n;
  }
}

TEST(EarlyExitDistanceTest, AbortsOnlyWhenTrulyAboveBound) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.UniformDouble(-5.0, 5.0);
      b[i] = rng.UniformDouble(-5.0, 5.0);
    }
    const double ref = SquaredDistanceScalar(a.data(), b.data(), n);
    const double bound = ref * rng.UniformDouble(0.0, 2.0);
    const double got = SquaredDistanceEarlyExit(a.data(), b.data(), n, bound);
    if (std::isinf(got)) {
      EXPECT_GT(ref, bound);  // an abort must be provably correct
    } else {
      EXPECT_EQ(ref, got);
    }
  }
}

TEST(CentroidIndexTest, ExhaustiveSameArgminSweep) {
  // Random rows x random centroids over many shapes, labels equal exactly.
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 24));
    const size_t d = static_cast<size_t>(rng.UniformInt(1, 30));
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 64));
    Matrix centroids(k, d);
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < d; ++j) {
        centroids.At(c, j) = rng.UniformDouble(-3.0, 3.0);
      }
    }
    std::vector<double> rows(n * d);
    for (double& v : rows) v = rng.UniformDouble(-3.0, 3.0);
    EXPECT_EQ(PrunedLabels(rows, n, centroids),
              ReferenceLabels(rows, n, centroids))
        << "k=" << k << " d=" << d << " n=" << n;
  }
}

TEST(CentroidIndexTest, TieHeavyGridResolvesByLowestIndex) {
  // Centroids on a symmetric grid, rows exactly midway: every distance
  // ties, and the winner must be the lowest index — under seeding too.
  const size_t d = 4;
  Matrix centroids(4, d);
  const double coords[4][4] = {{1, 0, 0, 0}, {-1, 0, 0, 0},
                               {0, 1, 0, 0}, {0, -1, 0, 0}};
  for (size_t c = 0; c < 4; ++c) {
    for (size_t j = 0; j < d; ++j) centroids.At(c, j) = coords[c][j];
  }
  // All rows at the origin: equidistant from all four centroids.
  const size_t n = 9;
  std::vector<double> rows(n * d, 0.0);
  // Make row 3 closest to centroid 3 so the seeding for row 4 starts at a
  // high index and the tie-aware update must walk back down to 0.
  rows[3 * d + 1] = -0.5;
  const auto ref = ReferenceLabels(rows, n, centroids);
  EXPECT_EQ(PrunedLabels(rows, n, centroids), ref);
  EXPECT_EQ(ref[3], 3);
  EXPECT_EQ(ref[4], 0);
}

TEST(CentroidIndexTest, DuplicateCentroidsKeepIndexOrder) {
  const size_t d = 3, k = 5;
  Matrix centroids(k, d);
  for (size_t j = 0; j < d; ++j) {
    centroids.At(0, j) = 1.0;
    centroids.At(1, j) = 2.0;
    centroids.At(2, j) = 1.0;  // duplicate of 0
    centroids.At(3, j) = 2.0;  // duplicate of 1
    centroids.At(4, j) = -7.0;
  }
  Rng rng(3);
  const size_t n = 40;
  std::vector<double> rows(n * d);
  for (size_t r = 0; r < n; ++r) {
    const double base = rng.Bernoulli(0.5) ? 1.0 : 2.0;
    for (size_t j = 0; j < d; ++j) {
      rows[r * d + j] = base + rng.UniformDouble(-0.01, 0.01);
    }
  }
  const auto got = PrunedLabels(rows, n, centroids);
  EXPECT_EQ(got, ReferenceLabels(rows, n, centroids));
  for (int label : got) EXPECT_TRUE(label == 0 || label == 1 || label == 4);
}

TEST(CentroidIndexTest, RowOnCentroidGivesZeroDistance) {
  // best == 0 makes the skip threshold 0: all centroids at nonzero
  // distance are skipped, and the answer must still be exact.
  const size_t d = 8, k = 6;
  Rng rng(11);
  Matrix centroids(k, d);
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) {
      centroids.At(c, j) = rng.UniformDouble(-2.0, 2.0);
    }
  }
  std::vector<double> rows;
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) rows.push_back(centroids.At(c, j));
  }
  CentroidIndex::AssignStats stats;
  const auto got = PrunedLabels(rows, k, centroids, &stats);
  EXPECT_EQ(got, ReferenceLabels(rows, k, centroids));
  for (size_t c = 0; c < k; ++c) EXPECT_EQ(got[c], static_cast<int>(c));
  EXPECT_GT(stats.bound_skips, 0u);
}

TEST(CentroidIndexTest, ClusteredRowsPruneMostDistances) {
  // Paper-shaped input: rows concentrated near a few of many centroids.
  // Correctness is label equality; the stats assert the pruning actually
  // does something on the shape the serving path sees.
  Rng rng(23);
  const size_t k = 20, d = 22, n = 512;
  Matrix centroids(k, d);
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) {
      centroids.At(c, j) = rng.UniformDouble(-10.0, 10.0);
    }
  }
  std::vector<double> rows(n * d);
  for (size_t r = 0; r < n; ++r) {
    const size_t home = static_cast<size_t>(
        rng.UniformInt(0, 2));  // batches hit few templates
    for (size_t j = 0; j < d; ++j) {
      rows[r * d + j] = centroids.At(home, j) + rng.UniformDouble(-0.5, 0.5);
    }
  }
  CentroidIndex::AssignStats stats;
  EXPECT_EQ(PrunedLabels(rows, n, centroids, &stats),
            ReferenceLabels(rows, n, centroids));
  EXPECT_EQ(stats.rows, n);
  // The reference scan would compute n*k full distances.
  EXPECT_LT(stats.full_distances, n * k / 2);
  EXPECT_GT(stats.bound_skips + stats.early_exits, n * k / 2);
}

// Nearest is the per-row scan both Assign and k-means training use: from
// every seed it must return the reference label and, bit for bit, the
// distance the full scan computes for it.
TEST(CentroidIndexTest, NearestIsSeedIndependentAndExact) {
  Rng rng(41);
  const size_t k = 9, d = 6, n = 64;
  Matrix centroids(k, d);
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) {
      centroids.At(c, j) = std::round(rng.UniformDouble(-3.0, 3.0));
    }
  }
  // Duplicate centroids (equal distances from every row).
  for (size_t j = 0; j < d; ++j) centroids.At(7, j) = centroids.At(2, j);
  std::vector<double> rows(n * d);
  for (double& v : rows) v = std::round(rng.UniformDouble(-3.0, 3.0));
  const std::vector<int> want = ReferenceLabels(rows, n, centroids);
  CentroidIndex index(centroids);
  CentroidIndex::AssignStats stats;
  for (size_t r = 0; r < n; ++r) {
    const double* row = rows.data() + r * d;
    const double exact = SquaredDistance(
        row, centroids.RowPtr(static_cast<size_t>(want[r])), d);
    for (size_t seed = 0; seed < k; ++seed) {
      double distance = -1.0;
      EXPECT_EQ(index.Nearest(row, static_cast<int>(seed), &distance, &stats),
                want[r])
          << "row " << r << " seed " << seed;
      EXPECT_EQ(std::memcmp(&distance, &exact, sizeof(double)), 0)
          << "row " << r << " seed " << seed;
    }
  }
}

// A row whose distance to every centroid overflows: the full scan never
// finds one below DBL_MAX and keeps label 0, whatever the seed.
TEST(CentroidIndexTest, RowOverflowingEveryDistanceTakesLabelZero) {
  const size_t d = 4;
  Matrix centroids(3, d);
  for (size_t j = 0; j < d; ++j) {
    centroids.At(0, j) = -1.0;
    centroids.At(1, j) = 0.0;
    centroids.At(2, j) = 1.0;
  }
  // Row 0 lands on centroid 2 and seeds row 1, which overflows.
  std::vector<double> rows = {1.0, 1.0, 1.0, 1.0, 1e300, 1e300, 1e300, 1e300};
  EXPECT_EQ(ReferenceLabels(rows, 2, centroids), (std::vector<int>{2, 0}));
  EXPECT_EQ(PrunedLabels(rows, 2, centroids), (std::vector<int>{2, 0}));
  CentroidIndex index(centroids);
  CentroidIndex::AssignStats stats;
  double distance = 0.0;
  EXPECT_EQ(index.Nearest(rows.data() + d, 2, &distance, &stats), 0);
  EXPECT_EQ(distance, std::numeric_limits<double>::max());
}

TEST(CentroidIndexTest, SingleCentroidAndEmptyBatch) {
  Matrix centroids(1, 5);
  for (size_t j = 0; j < 5; ++j) centroids.At(0, j) = 1.0;
  CentroidIndex index(centroids);
  std::vector<double> rows(3 * 5, 4.0);
  std::vector<int> labels(3, -1);
  index.Assign(rows.data(), 3, labels.data());
  EXPECT_EQ(labels, (std::vector<int>{0, 0, 0}));
  index.Assign(rows.data(), 0, labels.data());  // no-op, no crash
}

}  // namespace
}  // namespace wmp::ml
