#include <gtest/gtest.h>

#include <cmath>

#include "linalg/bitmatrix.h"
#include "linalg/factorization.h"
#include "linalg/stats.h"
#include "util/rng.h"

namespace fdx {
namespace {

TEST(StatsTest, ColumnMeans) {
  Matrix samples = Matrix::FromRows({{1, 10}, {3, 20}, {5, 30}});
  Vector mu = ColumnMeans(samples);
  EXPECT_DOUBLE_EQ(mu[0], 3.0);
  EXPECT_DOUBLE_EQ(mu[1], 20.0);
}

TEST(StatsTest, CovarianceHandComputed) {
  // Two perfectly correlated columns.
  Matrix samples = Matrix::FromRows({{1, 2}, {2, 4}, {3, 6}});
  auto cov = Covariance(samples);
  ASSERT_TRUE(cov.ok());
  const double var_x = 2.0 / 3.0;  // ML normalization
  EXPECT_NEAR((*cov)(0, 0), var_x, 1e-12);
  EXPECT_NEAR((*cov)(1, 1), 4.0 * var_x, 1e-12);
  EXPECT_NEAR((*cov)(0, 1), 2.0 * var_x, 1e-12);
  EXPECT_NEAR((*cov)(0, 1), (*cov)(1, 0), 1e-15);
}

TEST(StatsTest, CovarianceOfConstantsIsZero) {
  Matrix samples(10, 2, 3.0);
  auto cov = Covariance(samples);
  ASSERT_TRUE(cov.ok());
  EXPECT_DOUBLE_EQ(cov->MaxAbs(), 0.0);
}

TEST(StatsTest, CovarianceRejectsEmpty) {
  EXPECT_FALSE(Covariance(Matrix(0, 3)).ok());
}

TEST(StatsTest, BitMatrixSetGetAndMoments) {
  BitMatrix bits(70, 2);  // spans two words per column
  bits.Set(0, 0);
  bits.Set(63, 0);
  bits.Set(64, 0);
  bits.Set(64, 1);
  bits.Set(69, 1);
  EXPECT_TRUE(bits.Get(63, 0));
  EXPECT_FALSE(bits.Get(62, 0));
  uint64_t counts[2] = {0, 0};
  uint64_t co[4] = {0, 0, 0, 0};
  bits.AccumulateMoments(counts, co);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(co[0 * 2 + 0], 3u);
  EXPECT_EQ(co[0 * 2 + 1], 1u);  // row 64 only
  EXPECT_EQ(co[1 * 2 + 1], 2u);
}

TEST(StatsTest, CovarianceWithZeroMeanDiffersFromCentered) {
  Matrix samples = Matrix::FromRows({{1, 1}, {1, 1}, {3, 3}});
  auto centered = Covariance(samples);
  auto zero_mean = CovarianceWithMean(samples, {0.0, 0.0});
  ASSERT_TRUE(centered.ok());
  ASSERT_TRUE(zero_mean.ok());
  // Around zero the second moment dominates.
  EXPECT_GT((*zero_mean)(0, 0), (*centered)(0, 0));
}

TEST(StatsTest, CovariancePositiveSemidefinite) {
  Rng rng(3);
  Matrix samples(50, 6);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 6; ++j) samples(i, j) = rng.NextGaussian();
  }
  auto cov = Covariance(samples);
  ASSERT_TRUE(cov.ok());
  // PSD check: Cholesky of cov + tiny ridge succeeds.
  Matrix ridged = *cov;
  for (size_t i = 0; i < 6; ++i) ridged(i, i) += 1e-9;
  EXPECT_TRUE(CholeskyFactor(ridged).ok());
}

TEST(StatsTest, CorrelationDiagonalAndBounds) {
  Rng rng(4);
  Matrix samples(200, 4);
  for (size_t i = 0; i < 200; ++i) {
    const double shared = rng.NextGaussian();
    samples(i, 0) = shared;
    samples(i, 1) = shared + 0.1 * rng.NextGaussian();
    samples(i, 2) = rng.NextGaussian();
    samples(i, 3) = 5.0;  // constant column
  }
  auto corr = Correlation(samples);
  ASSERT_TRUE(corr.ok());
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ((*corr)(i, i), 1.0);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_LE(std::fabs((*corr)(i, j)), 1.0 + 1e-12);
    }
  }
  EXPECT_GT((*corr)(0, 1), 0.9);          // strongly correlated pair
  EXPECT_LT(std::fabs((*corr)(0, 2)), 0.3);  // independent pair
  EXPECT_DOUBLE_EQ((*corr)(0, 3), 0.0);   // constant column decouples
}

TEST(StatsTest, StandardizeColumns) {
  Matrix samples = Matrix::FromRows({{1, 7}, {3, 7}, {5, 7}});
  Vector sd = StandardizeColumns(&samples);
  EXPECT_GT(sd[0], 0.0);
  EXPECT_DOUBLE_EQ(sd[1], 0.0);
  // First column: mean 0, unit variance.
  Vector mu = ColumnMeans(samples);
  EXPECT_NEAR(mu[0], 0.0, 1e-12);
  double var = 0.0;
  for (size_t i = 0; i < 3; ++i) var += samples(i, 0) * samples(i, 0);
  EXPECT_NEAR(var / 3.0, 1.0, 1e-12);
  // Constant column centered to zero but not scaled.
  EXPECT_NEAR(samples(0, 1), 0.0, 1e-12);
}

}  // namespace
}  // namespace fdx
