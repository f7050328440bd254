#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bn/networks.h"
#include "core/fdx.h"
#include "data/csv.h"
#include "synth/generator.h"

namespace fdx {
namespace {

TEST(GenerateFdsTest, ReadsUpperTriangle) {
  // Permuted coordinates: positions 0,1,2 hold attributes 2,0,1.
  Matrix b(3, 3);
  b(0, 2) = 0.5;   // position 0 -> position 2: attribute 2 -> attribute 1
  b(1, 2) = 0.02;  // below both the absolute and relative cuts
  FdSet fds =
      GenerateFdsFromAutoregression(b, {2, 0, 1}, 0.1, 0.4, 0.08, 1e-8);
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds[0].lhs, (std::vector<size_t>{2}));
  EXPECT_EQ(fds[0].rhs, 1u);
}

TEST(GenerateFdsTest, EmptyBelowThreshold) {
  Matrix b(4, 4);
  b(0, 1) = 1e-12;
  EXPECT_TRUE(
      GenerateFdsFromAutoregression(b, {0, 1, 2, 3}, 0.0, 0.4, 0.08, 1e-8)
          .empty());
}

TEST(GenerateFdsTest, RelativeRuleKeepsJointDeterminants) {
  // Three equal weights of 0.12 (a noisy 3-determinant FD) survive the
  // relative rule even though each is small in absolute terms.
  Matrix b(4, 4);
  b(0, 3) = 0.12;
  b(1, 3) = 0.12;
  b(2, 3) = 0.11;
  FdSet fds =
      GenerateFdsFromAutoregression(b, {0, 1, 2, 3}, 0.0, 0.4, 0.08, 1e-8);
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds[0].lhs.size(), 3u);
}

TEST(GenerateFdsTest, NegativeWeightsNeverQualify) {
  Matrix b(3, 3);
  b(0, 2) = -0.9;
  b(1, 2) = -0.5;
  EXPECT_TRUE(
      GenerateFdsFromAutoregression(b, {0, 1, 2}, 0.0, 0.4, 0.08, 1e-8)
          .empty());
}

TEST(FdxTest, RecoversUnaryFdFromCleanData) {
  // y = f(x), 20 values; z independent.
  Table t{Schema({"x", "y", "z"})};
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.NextInt(0, 19);
    t.AppendRow({Value(x), Value((x * 7 + 3) % 20), Value(rng.NextInt(0, 19))});
  }
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(t);
  ASSERT_TRUE(result.ok());
  FdSet truth = {FunctionalDependency({0}, 1)};
  FdScore score = ScoreFdsUndirected(result->fds, truth);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
  EXPECT_GE(score.precision, 0.99);
}

TEST(FdxTest, NoFdsOnIndependentData) {
  Table t{Schema({"a", "b", "c", "d"})};
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9)),
                 Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9))});
  }
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty())
      << FdSetToString(result->fds, t.schema());
}

TEST(FdxTest, RobustToModerateNoise) {
  SyntheticConfig config;
  config.num_tuples = 2000;
  config.num_attributes = 10;
  config.noise_rate = 0.1;
  config.seed = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(result.ok());
  FdScore score = ScoreFdsUndirected(result->fds, ds->true_fds);
  EXPECT_GT(score.f1, 0.5) << FdSetToString(result->fds, ds->clean.schema());
}

TEST(FdxTest, ResultExposesArtifacts) {
  SyntheticConfig config;
  config.num_tuples = 500;
  config.num_attributes = 6;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->theta.rows(), 6u);
  EXPECT_EQ(result->autoregression.rows(), 6u);
  EXPECT_EQ(result->ordering.size(), 6u);
  EXPECT_EQ(result->transform_samples, 500u * 6u);
  EXPECT_GE(result->transform_seconds, 0.0);
  EXPECT_GE(result->learning_seconds, 0.0);
  // The autoregression matrix is strictly "upper" in permuted positions:
  // mapped back, entry (i, i) must be zero.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(result->autoregression(i, i), 0.0);
  }
}

TEST(FdxTest, AtMostOneFdPerDependentAttribute) {
  SyntheticConfig config;
  config.num_tuples = 800;
  config.num_attributes = 12;
  config.seed = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(result.ok());
  std::set<size_t> rhs_seen;
  for (const auto& fd : result->fds) {
    EXPECT_TRUE(rhs_seen.insert(fd.rhs).second)
        << "duplicate RHS " << fd.rhs;
  }
  EXPECT_LE(result->fds.size(), 12u);  // parsimony (paper §5.4)
}

TEST(FdxTest, HigherSparsityThresholdFindsFewerEdges) {
  BayesNet net = MakeAsiaNetwork();
  Rng rng(5);
  auto sample = net.Sample(5000, &rng);
  ASSERT_TRUE(sample.ok());
  size_t previous_edges = 1000;
  for (double tau : {0.05, 0.15, 0.3, 0.6}) {
    FdxOptions options;
    options.sparsity_threshold = tau;
    FdxDiscoverer discoverer(options);
    auto result = discoverer.Discover(*sample);
    ASSERT_TRUE(result.ok());
    const size_t edges = FdEdges(result->fds).size();
    EXPECT_LE(edges, previous_edges) << "tau " << tau;
    previous_edges = edges;
  }
}

class FdxOrderingTest : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(FdxOrderingTest, AllOrderingsRecoverAsiaStructure) {
  // Paper Table 9: FDX is not sensitive to the ordering method.
  BayesNet net = MakeAsiaNetwork();
  Rng rng(6);
  auto sample = net.Sample(10000, &rng);
  ASSERT_TRUE(sample.ok());
  FdxOptions options;
  options.ordering = GetParam();
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(*sample);
  ASSERT_TRUE(result.ok());
  FdScore score = ScoreFdsUndirected(result->fds, net.GroundTruthFds());
  EXPECT_GT(score.f1, 0.6) << OrderingMethodName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderings, FdxOrderingTest,
    ::testing::Values(OrderingMethod::kNatural, OrderingMethod::kMinDegree,
                      OrderingMethod::kAmd, OrderingMethod::kColamd,
                      OrderingMethod::kMetis, OrderingMethod::kNesdis),
    [](const auto& info) { return OrderingMethodName(info.param); });

TEST(FdxTest, SequentialLassoEstimatorRecoversStructure) {
  // The neighborhood-selection engine must match graphical lasso on the
  // benchmark networks (it often edges it out on hub-heavy graphs).
  BayesNet net = MakeAsiaNetwork();
  Rng rng(77);
  auto sample = net.Sample(8000, &rng);
  ASSERT_TRUE(sample.ok());
  FdxOptions options;
  options.estimator = StructureEstimator::kSequentialLasso;
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(*sample);
  ASSERT_TRUE(result.ok());
  const FdScore score =
      ScoreFdsUndirected(result->fds, net.GroundTruthFds());
  EXPECT_GT(score.f1, 0.6);
  // The SEM-implied theta is still a valid symmetric matrix.
  EXPECT_TRUE(result->theta.IsSymmetric(1e-9));
}

TEST(FdxTest, SequentialLassoOnIndependentDataIsEmpty) {
  Table t{Schema({"a", "b", "c"})};
  Rng rng(78);
  for (int i = 0; i < 2000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9)),
                 Value(rng.NextInt(0, 9))});
  }
  FdxOptions options;
  options.estimator = StructureEstimator::kSequentialLasso;
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty())
      << FdSetToString(result->fds, t.schema());
}

TEST(FdxTest, UnnormalizedCovarianceWithRawScaleLambda) {
  // normalize_covariance=false reproduces the paper's raw-covariance
  // setup; lambda must then live on the covariance scale (Table 8's
  // {0..0.010} grid).
  Table t{Schema({"x", "y", "z"})};
  Rng rng(81);
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.NextInt(0, 9);
    t.AppendRow({Value(x), Value((x * 3 + 2) % 10),
                 Value(rng.NextInt(0, 9))});
  }
  FdxOptions options;
  options.normalize_covariance = false;
  options.lambda = 0.002;
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(t);
  ASSERT_TRUE(result.ok());
  FdScore score =
      ScoreFdsUndirected(result->fds, {FunctionalDependency({0}, 1)});
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
}

TEST(FdxTest, PooledCovarianceEndToEnd) {
  SyntheticConfig config;
  config.num_tuples = 1200;
  config.num_attributes = 8;
  config.seed = 82;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxOptions options;
  options.transform.pooled_covariance = true;
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(ds->clean);
  ASSERT_TRUE(result.ok());
  FdScore score = ScoreFdsUndirected(result->fds, ds->true_fds);
  EXPECT_GT(score.f1, 0.6)
      << FdSetToString(result->fds, ds->clean.schema());
}

TEST(FdxTest, DiscoverFromCovarianceBypassesTransform) {
  // Identity covariance: no dependencies, no FDs.
  FdxDiscoverer discoverer;
  auto result = discoverer.DiscoverFromCovariance(Matrix::Identity(5));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty());
}

TEST(FdxTest, RejectsNegativeLambda) {
  SyntheticConfig config;
  config.num_tuples = 300;
  config.num_attributes = 5;
  config.seed = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxOptions options;
  for (double lambda : {-1.0, -1e-12, std::nan("")}) {
    options.lambda = lambda;
    EXPECT_EQ(ValidateFdxOptions(options).code(),
              StatusCode::kInvalidArgument)
        << lambda;
    FdxDiscoverer discoverer(options);
    auto result = discoverer.Discover(ds->noisy);
    ASSERT_FALSE(result.ok()) << lambda;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("lambda"), std::string::npos);
    // Even a shape with nothing to discover is rejected up front.
    EXPECT_FALSE(discoverer.Discover(Table{Schema({"a", "b"})}).ok());
    auto from_cov = discoverer.DiscoverFromCovariance(Matrix::Identity(5));
    ASSERT_FALSE(from_cov.ok());
    EXPECT_EQ(from_cov.status().code(), StatusCode::kInvalidArgument);
  }
  // No penalty at all is a legal (dense) solve.
  options.lambda = 0.0;
  EXPECT_TRUE(ValidateFdxOptions(options).ok());
  EXPECT_TRUE(FdxDiscoverer(options).Discover(ds->noisy).ok());
}

TEST(FdxTest, HandlesMissingValues) {
  SyntheticConfig config;
  config.num_tuples = 1500;
  config.num_attributes = 8;
  config.seed = 7;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  Rng rng(8);
  Table holed = PunchHoles(ds->clean, 0.05, &rng);
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(holed);
  ASSERT_TRUE(result.ok());
  FdScore score = ScoreFdsUndirected(result->fds, ds->true_fds);
  EXPECT_GT(score.f1, 0.4);
}

// --- Degenerate inputs: Discover must return a clean Status or an empty
// result with diagnostics, never crash (paper tables only ever show
// well-formed relations; real data is not so polite). ---

TEST(FdxDegenerateTest, NoColumnsIsInvalidArgument) {
  Table t{Schema(std::vector<std::string>{})};
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FdxDegenerateTest, ZeroRowsReturnsEmptyWithDiagnostics) {
  Table t{Schema({"a", "b", "c"})};
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty());
  EXPECT_EQ(result->theta.rows(), 3u);
  EXPECT_EQ(result->ordering, (std::vector<size_t>{0, 1, 2}));
  ASSERT_EQ(result->diagnostics.events.size(), 1u);
  EXPECT_EQ(result->diagnostics.events[0].action, "degenerate_table");
  EXPECT_FALSE(result->diagnostics.Degraded());
}

TEST(FdxDegenerateTest, SingleRowReturnsEmpty) {
  Table t{Schema({"a", "b"})};
  t.AppendRow({Value(int64_t{1}), Value(int64_t{2})});
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty());
  EXPECT_EQ(result->diagnostics.events[0].action, "degenerate_table");
}

TEST(FdxDegenerateTest, SingleColumnReturnsEmpty) {
  Table t{Schema({"only"})};
  for (int i = 0; i < 50; ++i) t.AppendRow({Value(int64_t{i})});
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fds.empty());
  EXPECT_EQ(result->ordering, (std::vector<size_t>{0}));
}

TEST(FdxDegenerateTest, AllConstantColumnsSucceedEmpty) {
  Table t{Schema({"a", "b", "c"})};
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  }
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->fds.empty());
  // All three equality indicators are constant: flagged, not fatal.
  ASSERT_FALSE(result->diagnostics.events.empty());
  EXPECT_EQ(result->diagnostics.events[0].action, "degenerate_attributes");
}

TEST(FdxDegenerateTest, AllNullColumnSurvivesFullPipeline) {
  // Nulls never compare equal, so an all-null column's indicator is
  // constant-zero; it must not poison the other columns' structure.
  Table t{Schema({"x", "y", "hole"})};
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.NextInt(0, 19);
    t.AppendRow({Value(x), Value((x * 7 + 3) % 20), Value::Null()});
  }
  auto result = FdxDiscoverer().Discover(t);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& fd : result->fds) {
    EXPECT_NE(fd.rhs, 2u);
    for (size_t lhs : fd.lhs) EXPECT_NE(lhs, 2u);
  }
  FdScore score =
      ScoreFdsUndirected(result->fds, {FunctionalDependency({0}, 1)});
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
}

TEST(FdxTest, TransformCapStillRecoversStructure) {
  SyntheticConfig config;
  config.num_tuples = 5000;
  config.num_attributes = 8;
  config.seed = 9;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxOptions options;
  options.transform.max_pairs_per_attribute = 1000;
  FdxDiscoverer discoverer(options);
  auto result = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(result.ok());
  FdScore score = ScoreFdsUndirected(result->fds, ds->true_fds);
  EXPECT_GT(score.f1, 0.4);
}

}  // namespace
}  // namespace fdx
