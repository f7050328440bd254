// Determinism contract of the parallel substrate: every FDX pipeline
// stage must produce bit-identical results at 1, 2, and 8 threads, and
// the blocked floating-point reductions in linalg must be independent of
// the thread count (see DESIGN.md "Concurrency").

#include <gtest/gtest.h>

#include <cmath>

#include "core/fdx.h"
#include "core/transform.h"
#include "eval/runner.h"
#include "linalg/stats.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace fdx {
namespace {

SyntheticDataset MakeData(size_t tuples, size_t attributes, uint64_t seed) {
  SyntheticConfig config;
  config.num_tuples = tuples;
  config.num_attributes = attributes;
  config.seed = seed;
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  return *std::move(ds);
}

/// Exact (bitwise) matrix equality, with a readable failure message.
void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.Subtract(b).MaxAbs(), 0.0);
}

/// PairTransformCounts and PairTransformMoments at 2 and 8 threads must
/// equal the 1-thread run: the passes are spread over the threads, each
/// attribute draws from its own forked seed, and the integer counts
/// merge in any order.
void ExpectTransformIdenticalAcrossThreads(const Table& table,
                                           TransformOptions options) {
  options.threads = 1;
  auto serial_counts = PairTransformCounts(table, options);
  auto serial = PairTransformMoments(table, options);
  ASSERT_TRUE(serial_counts.ok() && serial.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.threads = threads;
    auto counts = PairTransformCounts(table, options);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(counts->counts, serial_counts->counts) << threads << " threads";
    EXPECT_EQ(counts->co_counts, serial_counts->co_counts)
        << threads << " threads";
    EXPECT_EQ(counts->num_samples, serial_counts->num_samples);
    auto moments = PairTransformMoments(table, options);
    ASSERT_TRUE(moments.ok());
    EXPECT_EQ(moments->num_samples, serial->num_samples);
    for (size_t c = 0; c < serial->mean.size(); ++c) {
      EXPECT_EQ(moments->mean[c], serial->mean[c]);
    }
    ExpectBitIdentical(serial->cov, moments->cov);
  }
}

TEST(ParallelDeterminismTest, PairTransformIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds = MakeData(500, 9, 11);
  TransformOptions options;
  options.seed = 5;
  ExpectTransformIdenticalAcrossThreads(ds.noisy, options);
}

TEST(ParallelDeterminismTest, SampledPairTransformIdenticalAcrossThreads) {
  const SyntheticDataset ds = MakeData(800, 6, 12);
  TransformOptions options;
  options.seed = 9;
  options.max_pairs_per_attribute = 64;
  ExpectTransformIdenticalAcrossThreads(ds.noisy, options);
}

TEST(ParallelDeterminismTest, MomentsIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds = MakeData(600, 10, 13);
  for (bool pooled : {false, true}) {
    TransformOptions options;
    options.seed = 3;
    options.pooled_covariance = pooled;
    options.threads = 1;
    auto serial = PairTransformMoments(ds.noisy, options);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      options.threads = threads;
      auto parallel = PairTransformMoments(ds.noisy, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->num_samples, serial->num_samples);
      for (size_t c = 0; c < serial->mean.size(); ++c) {
        EXPECT_EQ(parallel->mean[c], serial->mean[c]);
      }
      ExpectBitIdentical(serial->cov, parallel->cov);
    }
  }
}

TEST(ParallelDeterminismTest, PackedTransformIdenticalAcrossThreadCounts) {
  // Under the pooled estimator each pass keeps its own covariance, and
  // the passes are reduced in attribute order whichever thread ran them.
  const SyntheticDataset ds = MakeData(700, 11, 16);
  TransformOptions options;
  options.seed = 8;
  options.pooled_covariance = true;
  ExpectTransformIdenticalAcrossThreads(ds.noisy, options);
}

TEST(ParallelDeterminismTest, SampledPackedTransformIdenticalAcrossThreads) {
  const SyntheticDataset ds = MakeData(900, 7, 17);
  TransformOptions options;
  options.seed = 4;
  options.max_pairs_per_attribute = 100;
  options.pooled_covariance = true;
  ExpectTransformIdenticalAcrossThreads(ds.noisy, options);
}

TEST(ParallelDeterminismTest, MomentsRepeatableAtFixedThreadCount) {
  const SyntheticDataset ds = MakeData(600, 10, 14);
  TransformOptions options;
  options.seed = 21;
  options.threads = 8;
  auto a = PairTransformMoments(ds.noisy, options);
  auto b = PairTransformMoments(ds.noisy, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBitIdentical(a->cov, b->cov);
}

TEST(ParallelDeterminismTest, FdxDiscoverIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds = MakeData(800, 12, 15);
  FdxOptions options;
  options.threads = 1;
  auto serial = FdxDiscoverer(options).Discover(ds.noisy);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.threads = threads;
    auto parallel = FdxDiscoverer(options).Discover(ds.noisy);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->fds, serial->fds);
    ExpectBitIdentical(serial->theta, parallel->theta);
    ExpectBitIdentical(serial->autoregression, parallel->autoregression);
  }
}

TEST(ParallelDeterminismTest, BlockedStatsIndependentOfThreadCount) {
  Rng rng(17);
  const size_t n = 10000;  // > one accumulation block
  const size_t k = 12;
  Matrix samples(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) samples(i, j) = rng.NextGaussian();
  }
  const Vector mu2 = ColumnMeans(samples, 2);
  const Vector mu8 = ColumnMeans(samples, 8);
  ASSERT_EQ(mu2.size(), mu8.size());
  for (size_t j = 0; j < k; ++j) EXPECT_EQ(mu2[j], mu8[j]);

  auto cov2 = CovarianceWithMean(samples, mu2, 2);
  auto cov8 = CovarianceWithMean(samples, mu2, 8);
  ASSERT_TRUE(cov2.ok() && cov8.ok());
  ExpectBitIdentical(*cov2, *cov8);

  // The blocked reduction agrees with the serial one to rounding error.
  auto serial = CovarianceWithMean(samples, mu2, 1);
  ASSERT_TRUE(serial.ok());
  EXPECT_LT(serial->Subtract(*cov8).MaxAbs(), 1e-10);

  Matrix std2 = samples;
  Matrix std8 = samples;
  const Vector sd2 = StandardizeColumns(&std2, 2);
  const Vector sd8 = StandardizeColumns(&std8, 8);
  for (size_t j = 0; j < k; ++j) EXPECT_EQ(sd2[j], sd8[j]);
  ExpectBitIdentical(std2, std8);
}

TEST(ParallelDeterminismTest, ParallelMultiplyMatchesSerialReference) {
  // 70 x 90 x 80 = 504k fused multiply-adds: above the parallel cutoff.
  Rng rng(19);
  Matrix a(70, 90);
  Matrix b(90, 80);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
    }
  }
  for (size_t i = 0; i < b.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.NextGaussian();
  }
  const Matrix fast = a.Multiply(b);
  // Reference: the original serial i-k-j loop with the zero skip.
  Matrix reference(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double v = a(i, k);
      if (v == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        reference(i, j) += v * b(k, j);
      }
    }
  }
  ExpectBitIdentical(reference, fast);

  const Matrix t = a.Transpose();
  ASSERT_EQ(t.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
}

TEST(ParallelDeterminismTest, RunMethodsParallelMatchesSerialRuns) {
  const SyntheticDataset small = MakeData(200, 6, 1);
  const SyntheticDataset other = MakeData(150, 5, 2);
  RunnerConfig config;
  config.time_budget_seconds = 30;
  config.rfi_max_lhs = 2;
  std::vector<MethodTask> tasks = {
      {MethodId::kFdx, &small.noisy},  {MethodId::kTane, &small.noisy},
      {MethodId::kCords, &small.noisy}, {MethodId::kFdx, &other.noisy},
      {MethodId::kGl, &other.noisy},
  };
  config.threads = 4;
  const auto fanned = RunMethodsParallel(tasks, config);
  ASSERT_EQ(fanned.size(), tasks.size());
  RunnerConfig serial_config = config;
  serial_config.threads = 1;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const RunOutcome serial =
        RunMethod(tasks[i].method, *tasks[i].table, serial_config);
    EXPECT_EQ(fanned[i].ok, serial.ok) << "task " << i;
    EXPECT_EQ(fanned[i].fds, serial.fds) << "task " << i;
  }
}

}  // namespace
}  // namespace fdx
