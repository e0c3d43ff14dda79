// Unit and property tests for k-means and DBSCAN.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "core/featurizer.h"
#include "core/template_learner.h"
#include "ml/dbscan.h"
#include "ml/kmeans.h"
#include "ml/scaler.h"
#include "reference/reference_kmeans.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/random.h"
#include "workloads/dataset.h"

namespace wmp::ml {
namespace {

// Three well-separated Gaussian blobs in 2-D.
Matrix ThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 10.0}, {-10.0, 8.0}};
  Matrix x(per_blob * 3, 2);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      const size_t r = b * per_blob + i;
      x.At(r, 0) = centers[b][0] + rng.Normal(0, 0.5);
      x.At(r, 1) = centers[b][1] + rng.Normal(0, 0.5);
    }
  }
  return x;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Matrix x = ThreeBlobs(60, 3);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 1}).ok());
  auto labels = km.AssignAll(x).value();
  // All points of one blob share a label, and the three blobs get three
  // distinct labels.
  std::set<int> blob_labels;
  for (size_t b = 0; b < 3; ++b) {
    const int l0 = labels[b * 60];
    for (size_t i = 0; i < 60; ++i) EXPECT_EQ(labels[b * 60 + i], l0);
    blob_labels.insert(l0);
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeansTest, AssignReturnsNearestCentroid) {
  Matrix x = ThreeBlobs(40, 5);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 2}).ok());
  // A point exactly at a centroid must be assigned to it.
  for (int c = 0; c < km.num_clusters(); ++c) {
    auto centroid = km.centroids().RowVec(static_cast<size_t>(c));
    EXPECT_EQ(km.Assign(centroid).value(), c);
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Matrix x = ThreeBlobs(50, 7);
  auto inertias = KMeansElbowCurve(x, {1, 2, 3, 5, 8}, {.seed = 3}).value();
  for (size_t i = 1; i < inertias.size(); ++i) {
    EXPECT_LE(inertias[i], inertias[i - 1] + 1e-9);
  }
}

TEST(KMeansTest, ElbowFindsTrueClusterCount) {
  Matrix x = ThreeBlobs(50, 9);
  std::vector<int> ks{1, 2, 3, 4, 5, 6, 7, 8};
  auto inertias = KMeansElbowCurve(x, ks, {.seed = 4}).value();
  // The max-distance-to-chord elbow should land at or next to k=3.
  size_t elbow = PickElbow(inertias);
  EXPECT_GE(ks[elbow], 2);
  EXPECT_LE(ks[elbow], 4);
}

TEST(KMeansTest, MoreClustersThanRowsCollapses) {
  auto x = Matrix::FromRows({{0, 0}, {1, 1}}).value();
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 10, .seed = 5}).ok());
  EXPECT_LE(km.num_clusters(), 2);
}

TEST(KMeansTest, ErrorsOnBadInput) {
  KMeans km;
  Matrix empty;
  EXPECT_TRUE(km.Fit(empty, {}).IsInvalidArgument());
  Matrix x = ThreeBlobs(5, 1);
  EXPECT_TRUE(km.Fit(x, {.num_clusters = 0}).IsInvalidArgument());
  EXPECT_TRUE(km.Assign({1.0, 2.0}).status().IsFailedPrecondition());
}

TEST(KMeansTest, DeterministicForSameSeed) {
  Matrix x = ThreeBlobs(30, 11);
  KMeans a, b;
  ASSERT_TRUE(a.Fit(x, {.num_clusters = 3, .seed = 42}).ok());
  ASSERT_TRUE(b.Fit(x, {.num_clusters = 3, .seed = 42}).ok());
  EXPECT_EQ(a.centroids().data(), b.centroids().data());
}

TEST(KMeansTest, SerializationRoundTrip) {
  Matrix x = ThreeBlobs(30, 13);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = 3, .seed = 6}).ok());
  BinaryWriter w;
  km.Serialize(&w);
  BinaryReader r(w.buffer());
  auto restored = KMeans::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->centroids().data(), km.centroids().data());
  EXPECT_DOUBLE_EQ(restored->inertia(), km.inertia());
  // Restored model assigns identically.
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(restored->Assign(x.RowVec(i)).value(),
              km.Assign(x.RowVec(i)).value());
  }
}

// The register-blocked SquaredDistance kernel (4-wide accumulators) and the
// 4-row-blocked AssignAll path must produce assignments identical to the
// scalar per-row Assign, across dimensions that exercise every unroll
// remainder (d % 4 in {0,1,2,3}) and row-block remainder (n % 4 != 0).
TEST(KMeansTest, AssignAllMatchesAssignIdentically) {
  for (size_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 11u}) {
    Rng rng(1000 + d);
    const size_t n = 203;  // not a multiple of the 4-row block
    Matrix x(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) x.At(i, j) = rng.Normal(0, 2.0);
    }
    KMeans km;
    ASSERT_TRUE(km.Fit(x, {.num_clusters = 11, .seed = d}).ok());
    auto all = km.AssignAll(x);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), n);
    for (size_t i = 0; i < n; ++i) {
      auto one = km.Assign(x.RowVec(i));
      ASSERT_TRUE(one.ok());
      ASSERT_EQ((*all)[i], *one) << "d=" << d << " row " << i;
    }
  }
}

TEST(KMeansTest, RejectsNonFiniteInput) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix x = ThreeBlobs(10, 15);
    x.At(17, 1) = bad;
    KMeans km;
    const Status st = km.Fit(x, {.num_clusters = 3});
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.message().find("row 17, column 1"), std::string::npos)
        << st.ToString();
    EXPECT_FALSE(km.fitted());
    EXPECT_TRUE(KMeansElbowCurve(x, {2, 3}, {}).status().IsInvalidArgument());
  }
}

// ---------- pruned parallel Lloyd vs the full-scan oracle ----------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.RowPtr(0), b.RowPtr(0),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// Gaussian blobs around `centers` random centres in `d` dimensions; `n`
// is kept above the 256-row ParallelFor grain so that several chunks run
// concurrently.
Matrix Blobs(size_t n, size_t d, int centers, double spread, uint64_t seed) {
  Rng rng(seed);
  Matrix means(static_cast<size_t>(centers), d);
  for (double& v : means.data()) v = rng.UniformDouble(-20.0, 20.0);
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(rng.UniformInt(0, centers - 1));
    for (size_t j = 0; j < d; ++j) {
      x.At(i, j) = means.At(c, j) + rng.Normal(0, spread);
    }
  }
  return x;
}

// `n` rows, each a copy of one of `distinct` random points: exact ties
// between rows, and between centroids once clusters collapse.
Matrix Duplicates(size_t n, size_t d, int distinct, uint64_t seed) {
  Rng rng(seed);
  Matrix points(static_cast<size_t>(distinct), d);
  for (double& v : points.data()) v = std::round(rng.UniformDouble(-3, 3));
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t p = static_cast<size_t>(rng.UniformInt(0, distinct - 1));
    std::copy(points.RowPtr(p), points.RowPtr(p) + d, x.RowPtr(i));
  }
  return x;
}

struct OracleCase {
  const char* name;
  Matrix x;
  KMeansOptions options;
};

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  // d % 4 in {0, 1, 2, 3}, d < 8 and d >= 8.
  for (size_t d : {1u, 2u, 3u, 5u, 7u, 8u, 22u}) {
    cases.push_back({"blobs", Blobs(1500, d, 6, 0.7, 40 + d),
                     {.num_clusters = 6, .seed = d}});
    cases.push_back({"overlapping blobs", Blobs(1200, d, 12, 6.0, 60 + d),
                     {.num_clusters = 17, .n_init = 2, .seed = 3 + d}});
  }
  for (size_t d : {2u, 6u, 9u}) {
    cases.push_back({"duplicate rows", Duplicates(1000, d, 9, 80 + d),
                     {.num_clusters = 5, .seed = 7}});
    // More clusters than distinct rows: every iteration reseeds empties.
    cases.push_back({"k above distinct rows", Duplicates(800, d, 4, 90 + d),
                     {.num_clusters = 11, .seed = 8}});
  }
  cases.push_back({"k = 1, restarts", Blobs(900, 3, 4, 1.0, 99),
                   {.num_clusters = 1, .n_init = 4, .seed = 9}});
  cases.push_back({"k = 1, restarts, d = 13", Blobs(700, 13, 2, 1.0, 98),
                   {.num_clusters = 1, .n_init = 3, .seed = 10}});
  return cases;
}

TEST(KMeansOracleTest, FitMatchesFullScanBitwise) {
  const std::vector<OracleCase> cases = OracleCases();
  std::vector<reference::KMeansFit> want;
  for (const OracleCase& c : cases) {
    want.push_back(reference::FullScanKMeans(c.x, c.options));
  }
  for (int threads : {1, 2, 4}) {
    util::ScopedParallelism scope(threads);
    for (size_t i = 0; i < cases.size(); ++i) {
      const OracleCase& c = cases[i];
      SCOPED_TRACE(::testing::Message()
                   << c.name << ", d=" << c.x.cols()
                   << ", k=" << c.options.num_clusters
                   << ", threads=" << threads);
      KMeans km;
      ASSERT_TRUE(km.Fit(c.x, c.options).ok());
      EXPECT_TRUE(SameBits(km.centroids(), want[i].centroids));
      EXPECT_TRUE(SameBits(km.inertia(), want[i].inertia))
          << km.inertia() << " vs " << want[i].inertia;
    }
  }
}

TEST(KMeansOracleTest, ElbowCurveMatchesFullScanBitwise) {
  const Matrix x = Blobs(2000, 5, 7, 1.5, 123);
  const std::vector<int> ks{1, 2, 4, 7, 10, 16};
  const KMeansOptions base{.n_init = 1, .seed = 5};
  const std::vector<double> want = reference::FullScanElbowCurve(x, ks, base);
  for (int threads : {1, 2, 4}) {
    util::ScopedParallelism scope(threads);
    auto got = KMeansElbowCurve(x, ks, base);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(SameBits((*got)[i], want[i]))
          << "k=" << ks[i] << " threads=" << threads;
    }
  }
}

// ChooseNumTemplates (plan features -> scaler -> elbow sweep) picks the k
// the full-scan sweep picks on the same standardized plan features.
TEST(KMeansOracleTest, ChooseNumTemplatesMatchesFullScanElbow) {
  workloads::DatasetOptions opt;
  opt.num_queries = 1200;
  opt.seed = 21;
  auto dataset = workloads::BuildDataset(workloads::Benchmark::kTpcds, opt);
  ASSERT_TRUE(dataset.ok());
  const std::vector<uint32_t> indices =
      core::AllIndices(dataset->records.size());
  const std::vector<int> ks{4, 8, 12, 16, 20, 24};
  const uint64_t seed = 17;

  const Matrix z = core::PlanFeatureMatrix(dataset->records, indices);
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(z).ok());
  auto scaled = scaler.Transform(z);
  ASSERT_TRUE(scaled.ok());
  const std::vector<double> curve = reference::FullScanElbowCurve(
      *scaled, ks, {.n_init = 1, .seed = seed});
  const int want = ks[PickElbow(curve)];

  for (int threads : {1, 2, 4}) {
    util::ScopedParallelism scope(threads);
    auto got = core::ChooseNumTemplates(dataset->records, indices, ks, seed);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want) << "threads=" << threads;
  }
}

// Property: every point's assigned centroid is at least as close as any
// other centroid, across k values.
class KMeansAssignmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(KMeansAssignmentProperty, NearestCentroidInvariant) {
  const int k = GetParam();
  Matrix x = ThreeBlobs(40, static_cast<uint64_t>(k) + 100);
  KMeans km;
  ASSERT_TRUE(km.Fit(x, {.num_clusters = k, .seed = 77}).ok());
  for (size_t i = 0; i < x.rows(); i += 7) {
    auto row = x.RowVec(i);
    const int assigned = km.Assign(row).value();
    const double d_assigned = SquaredDistance(
        row.data(), km.centroids().RowPtr(static_cast<size_t>(assigned)), 2);
    for (int c = 0; c < km.num_clusters(); ++c) {
      const double d = SquaredDistance(
          row.data(), km.centroids().RowPtr(static_cast<size_t>(c)), 2);
      EXPECT_GE(d + 1e-12, d_assigned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansAssignmentProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 10, 20));

// ---------- DBSCAN ----------

TEST(DbscanTest, FindsDenseBlobsAndNoise) {
  Rng rng(31);
  std::vector<std::vector<double>> rows;
  // Two dense blobs.
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Normal(0, 0.2), rng.Normal(0, 0.2)});
    rows.push_back({rng.Normal(5, 0.2), rng.Normal(5, 0.2)});
  }
  // A single far-away outlier.
  rows.push_back({100.0, 100.0});
  Matrix x = Matrix::FromRows(rows).value();

  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 1.0, .min_points = 4}).ok());
  EXPECT_EQ(db.num_clusters(), 2);
  EXPECT_EQ(db.labels().back(), -1);  // outlier flagged as noise
}

TEST(DbscanTest, AllPointsOneClusterWhenEpsLarge) {
  Matrix x = ThreeBlobs(20, 33);
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 100.0, .min_points = 3}).ok());
  EXPECT_EQ(db.num_clusters(), 1);
  for (int l : db.labels()) EXPECT_EQ(l, 0);
}

TEST(DbscanTest, AllNoiseWhenEpsTiny) {
  Matrix x = ThreeBlobs(20, 35);
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 1e-6, .min_points = 3}).ok());
  EXPECT_EQ(db.num_clusters(), 0);
  for (int l : db.labels()) EXPECT_EQ(l, -1);
}

TEST(DbscanTest, CentroidsAreClusterMeans) {
  Rng rng(37);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({rng.Normal(2, 0.1)});
  Matrix x = Matrix::FromRows(rows).value();
  Dbscan db;
  ASSERT_TRUE(db.Fit(x, {.eps = 0.5, .min_points = 3}).ok());
  ASSERT_EQ(db.num_clusters(), 1);
  EXPECT_NEAR(db.centroids().At(0, 0), 2.0, 0.1);
}

TEST(DbscanTest, ErrorsOnBadParams) {
  Matrix x = ThreeBlobs(5, 39);
  Dbscan db;
  EXPECT_TRUE(db.Fit(x, {.eps = 0.0, .min_points = 3}).IsInvalidArgument());
  EXPECT_TRUE(db.Fit(x, {.eps = 1.0, .min_points = 0}).IsInvalidArgument());
  Matrix empty;
  EXPECT_TRUE(db.Fit(empty, {}).IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::ml
