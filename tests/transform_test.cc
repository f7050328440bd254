#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "core/code_panel.h"
#include "core/pairs.h"
#include "core/transform.h"
#include "core/transform_kernels.h"
#include "data/csv.h"
#include "gram_oracle.h"
#include "linalg/bitmatrix.h"
#include "linalg/stats.h"
#include "synth/generator.h"
#include "transform_oracle.h"

namespace fdx {
namespace {

Table TableFromCsv(const std::string& text) {
  auto t = ParseCsv(text);
  EXPECT_TRUE(t.ok());
  return *t;
}

// Reference moments, counted sample by sample off the scalar reference
// transform (tests/transform_oracle.h) and finished with the expressions
// of the pre-packed engine. The packed kernels must reproduce them
// *bitwise*: same integer counts, same derived doubles.

struct RefMomentsResult {
  std::vector<uint64_t> counts;
  std::vector<uint64_t> co_counts;
  size_t total = 0;
  Vector mean;
  Matrix cov;
};

RefMomentsResult RefMoments(const Table& table,
                            const TransformOptions& options) {
  const size_t k = table.num_columns();
  RefMomentsResult ref;
  const EncodedTable encoded = EncodedTable::Encode(table);
  ref.counts.assign(k, 0);
  ref.co_counts.assign(k * k, 0);
  std::vector<uint64_t> pass_counts(k, 0);
  std::vector<uint64_t> pass_co_counts(k * k, 0);
  std::vector<Matrix> pass_cov(k);
  std::vector<size_t> ones;
  for (size_t attr = 0; attr < k; ++attr) {
    auto samples = oracle::PairTransformPass(encoded, options, attr);
    EXPECT_TRUE(samples.ok());
    if (!samples.ok()) return ref;
    const size_t per_pass = samples->rows();
    std::fill(pass_counts.begin(), pass_counts.end(), 0);
    std::fill(pass_co_counts.begin(), pass_co_counts.end(), 0);
    for (size_t r = 0; r < per_pass; ++r) {
      ones.clear();
      for (size_t c = 0; c < k; ++c) {
        if ((*samples)(r, c) == 1.0) ones.push_back(c);
      }
      for (size_t x : ones) {
        ++ref.counts[x];
        ++pass_counts[x];
        for (size_t y : ones) {
          if (y < x) continue;
          ++ref.co_counts[x * k + y];
          ++pass_co_counts[x * k + y];
        }
      }
    }
    ref.total += per_pass;
    if (options.pooled_covariance) {
      Matrix cov(k, k);
      const double inv_pass = 1.0 / static_cast<double>(per_pass);
      for (size_t x = 0; x < k; ++x) {
        const double mean_x = static_cast<double>(pass_counts[x]) * inv_pass;
        for (size_t y = x; y < k; ++y) {
          const double mean_y = static_cast<double>(pass_counts[y]) * inv_pass;
          const double exy =
              static_cast<double>(pass_co_counts[x * k + y]) * inv_pass;
          const double value = exy - mean_x * mean_y;
          cov(x, y) = value;
          cov(y, x) = value;
        }
      }
      pass_cov[attr] = std::move(cov);
    }
  }
  ref.mean.assign(k, 0.0);
  const double inv_n = 1.0 / static_cast<double>(ref.total);
  for (size_t c = 0; c < k; ++c) {
    ref.mean[c] = static_cast<double>(ref.counts[c]) * inv_n;
  }
  if (options.pooled_covariance) {
    Matrix pooled(k, k);
    size_t passes = 0;
    for (size_t attr = 0; attr < k; ++attr) {
      if (pass_cov[attr].empty()) continue;
      pooled = pooled.Add(pass_cov[attr]);
      ++passes;
    }
    ref.cov = pooled.Scale(1.0 / static_cast<double>(passes));
    return ref;
  }
  ref.cov = Matrix(k, k);
  for (size_t x = 0; x < k; ++x) {
    for (size_t y = x; y < k; ++y) {
      const double exy =
          static_cast<double>(ref.co_counts[x * k + y]) * inv_n;
      const double value = exy - ref.mean[x] * ref.mean[y];
      ref.cov(x, y) = value;
      ref.cov(y, x) = value;
    }
  }
  return ref;
}

/// A table with ties (small domain) and ~15% nulls, the adversarial
/// regime for the sort's stability and the null-never-matches rule.
Table NoisyTiedTable(size_t rows, size_t cols, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  Table t{Schema(std::move(names))};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBernoulli(0.15)) {
        row.emplace_back();  // null
      } else {
        row.emplace_back(Value(rng.NextInt(0, 3)));  // heavy ties
      }
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

TEST(TransformTest, OutputIsBinaryWithExpectedShape) {
  Table t = TableFromCsv("a,b\n1,x\n2,y\n1,x\n3,z\n");
  auto dt = oracle::PairTransform(t);
  ASSERT_TRUE(dt.ok());
  // Algorithm 2: n pairs per attribute.
  EXPECT_EQ(dt->rows(), 4u * 2u);
  EXPECT_EQ(dt->cols(), 2u);
  for (size_t i = 0; i < dt->rows(); ++i) {
    for (size_t j = 0; j < dt->cols(); ++j) {
      const double v = (*dt)(i, j);
      EXPECT_TRUE(v == 0.0 || v == 1.0);
    }
  }
}

TEST(TransformTest, RejectsDegenerateInputs) {
  Table empty{Schema({"a"})};
  EXPECT_FALSE(oracle::PairTransform(empty).ok());
  Table one_row{Schema({"a"})};
  one_row.AppendRow({Value(int64_t{1})});
  EXPECT_FALSE(oracle::PairTransform(one_row).ok());
  EXPECT_FALSE(PairTransformMoments(empty).ok());
}

TEST(TransformTest, ConstantColumnAlwaysAgrees) {
  Table t = TableFromCsv("c,v\nk,1\nk,2\nk,3\nk,4\n");
  auto dt = oracle::PairTransform(t);
  ASSERT_TRUE(dt.ok());
  for (size_t i = 0; i < dt->rows(); ++i) {
    EXPECT_DOUBLE_EQ((*dt)(i, 0), 1.0);
  }
}

TEST(TransformTest, NullNeverAgrees) {
  Table t = TableFromCsv("a\n\n\n\n\n");  // all nulls
  auto dt = oracle::PairTransform(t);
  ASSERT_TRUE(dt.ok());
  for (size_t i = 0; i < dt->rows(); ++i) {
    EXPECT_DOUBLE_EQ((*dt)(i, 0), 0.0);
  }
}

TEST(TransformTest, FdImpliesConditionalAgreement) {
  // On clean data with FD x -> y, any pair that agrees on x agrees on y.
  SyntheticConfig config;
  config.num_tuples = 400;
  config.num_attributes = 6;
  config.seed = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  auto dt = oracle::PairTransform(ds->clean);
  ASSERT_TRUE(dt.ok());
  for (const auto& fd : ds->true_fds) {
    for (size_t i = 0; i < dt->rows(); ++i) {
      bool lhs_agrees = true;
      for (size_t x : fd.lhs) {
        if ((*dt)(i, x) == 0.0) {
          lhs_agrees = false;
          break;
        }
      }
      if (lhs_agrees) {
        EXPECT_DOUBLE_EQ((*dt)(i, fd.rhs), 1.0);
      }
    }
  }
}

TEST(TransformTest, MomentsMatchMaterializedTransform) {
  Table t = TableFromCsv("a,b,c\n1,x,p\n2,y,p\n1,x,q\n3,y,q\n2,x,p\n");
  TransformOptions options;
  options.seed = 99;
  auto dt = oracle::PairTransform(t, options);
  auto moments = PairTransformMoments(t, options);
  ASSERT_TRUE(dt.ok());
  ASSERT_TRUE(moments.ok());
  EXPECT_EQ(moments->num_samples, dt->rows());
  Vector mean = ColumnMeans(*dt);
  auto cov = Covariance(*dt);
  ASSERT_TRUE(cov.ok());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(moments->mean[j], mean[j], 1e-12);
  }
  EXPECT_LT(moments->cov.Subtract(*cov).MaxAbs(), 1e-12);
}

// The samples are 0/1, so their second moments about zero are the
// co-occurrence counts over N, to the bit (the zero-mean ablation
// variant of bench_ablation_transform relies on it).
TEST(TransformTest, CountsGiveZeroMeanCovarianceOfMaterializedTransform) {
  const Table t = NoisyTiedTable(300, 7, /*seed=*/8);
  auto dt = oracle::PairTransform(t);
  auto counts = PairTransformCounts(t);
  ASSERT_TRUE(dt.ok());
  ASSERT_TRUE(counts.ok());
  auto zero_mean = CovarianceWithMean(*dt, Vector(dt->cols(), 0.0));
  ASSERT_TRUE(zero_mean.ok());
  const size_t k = dt->cols();
  ASSERT_EQ(counts->num_samples, dt->rows());
  const double inv_n = 1.0 / static_cast<double>(counts->num_samples);
  for (size_t x = 0; x < k; ++x) {
    for (size_t y = x; y < k; ++y) {
      EXPECT_EQ((*zero_mean)(x, y),
                static_cast<double>(counts->co_counts[x * k + y]) * inv_n)
          << x << "," << y;
    }
  }
}

TEST(TransformTest, SamplingCapLimitsRows) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_attributes = 5;
  config.seed = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions options;
  options.max_pairs_per_attribute = 100;
  auto dt = oracle::PairTransform(ds->clean, options);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->rows(), 100u * 5u);
}

TEST(TransformTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_tuples = 100;
  config.num_attributes = 4;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions options;
  options.seed = 21;
  auto a = PairTransformMoments(ds->clean, options);
  auto b = PairTransformMoments(ds->clean, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->cov.Subtract(b->cov).MaxAbs(), 1e-15);
}

TEST(TransformTest, PooledCovarianceRemovesPassArtifact) {
  // Independent attributes: the concatenated estimator shows a uniform
  // negative coupling (the per-pass mean shift of the sorted column);
  // the pooled estimator does not.
  Table t{Schema({"a", "b", "c", "d"})};
  Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9)),
                 Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 9))});
  }
  TransformOptions concatenated;
  auto plain = PairTransformMoments(t, concatenated);
  ASSERT_TRUE(plain.ok());
  TransformOptions pooled = concatenated;
  pooled.pooled_covariance = true;
  auto within = PairTransformMoments(t, pooled);
  ASSERT_TRUE(within.ok());
  double plain_offdiag = 0.0, pooled_offdiag = 0.0;
  for (size_t x = 0; x < 4; ++x) {
    for (size_t y = x + 1; y < 4; ++y) {
      plain_offdiag += std::fabs(plain->cov(x, y));
      pooled_offdiag += std::fabs(within->cov(x, y));
    }
  }
  EXPECT_GT(plain_offdiag, 5.0 * pooled_offdiag);
}

TEST(TransformTest, PooledCovarianceKeepsFdSignal) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_attributes = 8;
  config.seed = 7;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  TransformOptions pooled;
  pooled.pooled_covariance = true;
  auto moments = PairTransformMoments(ds->clean, pooled);
  ASSERT_TRUE(moments.ok());
  // Every planted FD keeps positive covariance between its determinant
  // and dependent indicators.
  for (const auto& fd : ds->true_fds) {
    for (size_t x : fd.lhs) {
      EXPECT_GT(moments->cov(x, fd.rhs), 0.0)
          << "cov(" << x << "," << fd.rhs << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-vs-scalar exact equivalence. k sweeps across the uint64 word
// boundaries (1, 63, 64, 65, 130) and past a 64-column group (384), and
// n across the 64-pair block, the pack block and the wrap pair (2, 65,
// 130, 4097), so partial trailing words, nulls, tie groups and every code
// width are all exercised. At n = 4097 each checked pass's moments are
// also held to a per-bit count of its reference rows.

/// NoisyTiedTable with its first three columns drawn from 200, 256 and
/// 65,536 values: declared at those cardinalities, a panel keeps them at
/// one, two and four bytes per code.
Table WidthMixTable(size_t rows, size_t cols, uint64_t seed) {
  Table t = NoisyTiedTable(rows, cols, seed);
  const int64_t domains[] = {200, 256, 65536};
  Rng rng(seed + 1);
  for (size_t c = 0; c < std::min<size_t>(cols, 3); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      if (t.cell(r, c).is_null()) continue;
      t.set_cell(r, c, Value(rng.NextInt(0, domains[c] - 1)));
    }
  }
  return t;
}

/// One pass of oracle rows as packed bits.
BitMatrix OracleBits(const Matrix& rows) {
  BitMatrix bits(rows.rows(), rows.cols());
  for (size_t r = 0; r < rows.rows(); ++r) {
    for (size_t c = 0; c < rows.cols(); ++c) {
      if (rows(r, c) == 1.0) bits.Set(r, c);
    }
  }
  return bits;
}

class PackedEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedEquivalenceTest, MatrixMomentsAndCountsMatchScalarBitwise) {
  const size_t k = GetParam();
  for (size_t n : {size_t{2}, size_t{65}, size_t{130}, size_t{4097}}) {
    const Table t = WidthMixTable(n, k, /*seed=*/1000 + k + n);
    const EncodedTable encoded = EncodedTable::Encode(t);
    // The panel both drivers' passes read from: its first three columns
    // at one, two and four bytes.
    std::vector<size_t> cardinalities = encoded.cardinalities();
    const size_t declared[] = {200, 256, 65536};
    for (size_t c = 0; c < std::min<size_t>(k, 3); ++c) {
      cardinalities[c] = declared[c];
    }
    CodePanel panel(n, cardinalities);
    std::vector<CodeView> views(k);
    for (size_t c = 0; c < k; ++c) views[c] = encoded.column_codes(c);
    panel.Fill(0, views.data(), k, /*threads=*/2);
    std::vector<CodeColumn> columns(k);
    for (size_t c = 0; c < k; ++c) {
      panel.CopyColumn(c, &columns[c]);
      if (c < 3) {
        ASSERT_EQ(panel.width(c), 1u << c);
      }
    }
    std::vector<uint64_t> scratch(PanelScratchWords(k, panel.row_bytes()));
    auto pack_scratch = std::make_unique<PackScratch>();
    for (size_t max_pairs : {size_t{0}, size_t{37}, size_t{64}}) {
      TransformOptions options;
      options.seed = 17 + k;
      options.max_pairs_per_attribute = max_pairs;

      // Each pass's bits from the kernels the two schedules run (the
      // resident panel pack, the waves' per-column gather and pack),
      // against the reference rows of that pass.
      auto streams = PrepareTransformStreams(n, k, options.seed);
      ASSERT_TRUE(streams.ok());
      AttributePass pass;
      BitMatrix panel_bits;
      BitMatrix column_bits;
      // The scalar reference costs n·k per pass; past ~10^8 cells in all
      // it checks the passes sorted by each width's column, one pass in
      // 17 and the last (the pack kernels do not depend on the pass).
      const bool every_pass = n * k * k <= 100'000'000;
      for (size_t attr = 0; attr < k; ++attr) {
        if (!every_pass && attr >= 3 && attr % 17 != 0 && attr + 1 != k) {
          continue;
        }
        auto ref_rows = oracle::PairTransformPass(encoded, options, attr);
        ASSERT_TRUE(ref_rows.ok());
        const BitMatrix want = OracleBits(ref_rows.value());
        pass.Reset(columns[attr].view(), panel.cardinality(attr),
                   streams->shuffled, max_pairs, streams->attr_seeds[attr]);
        ASSERT_EQ(pass.num_pairs(), want.rows());
        panel_bits.Reset(pass.num_pairs(), k);
        PackPanelPass(panel.view(), pass, &panel_bits, scratch.data());
        column_bits.Reset(pass.num_pairs(), k);
        for (size_t col = 0; col < k; ++col) {
          PackColumnPass(columns[col].view(), pass,
                         column_bits.column_words(col), pack_scratch.get());
        }
        ASSERT_TRUE(panel_bits.IdenticalTo(want))
            << "panel pass " << attr << " k=" << k << " n=" << n
            << " max_pairs=" << max_pairs;
        ASSERT_TRUE(column_bits.IdenticalTo(want))
            << "column pass " << attr << " k=" << k << " n=" << n
            << " max_pairs=" << max_pairs;
        if (n == 4097) {
          // The pass's moments off those bits, against a per-bit count
          // of the reference rows: an exact pass has 65 words per
          // column, so the Gram's whole vectors and tail words both run.
          const oracle::BitMoments ref_moments = oracle::CountBitMoments(want);
          std::vector<uint64_t> counts(k, 0);
          std::vector<uint64_t> co_counts(k * k, 0);
          panel_bits.AccumulateMoments(counts.data(), co_counts.data());
          ASSERT_EQ(counts, ref_moments.counts)
              << "pass " << attr << " k=" << k << " max_pairs=" << max_pairs;
          ASSERT_EQ(co_counts, ref_moments.co_counts)
              << "pass " << attr << " k=" << k << " max_pairs=" << max_pairs;
        }
      }

      // The moments off those bits, at the sizes the scalar reference
      // moments stay quick for.
      if (n > 130) continue;
      const RefMomentsResult ref = RefMoments(t, options);
      auto counts = PairTransformCounts(t, options);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(counts->num_samples, ref.total);
      EXPECT_EQ(counts->counts, ref.counts);
      EXPECT_EQ(counts->co_counts, ref.co_counts);

      auto moments = PairTransformMoments(t, options);
      ASSERT_TRUE(moments.ok());
      EXPECT_EQ(moments->num_samples, ref.total);
      for (size_t c = 0; c < k; ++c) {
        EXPECT_EQ(moments->mean[c], ref.mean[c]);
      }
      EXPECT_EQ(moments->cov.Subtract(ref.cov).MaxAbs(), 0.0)
          << "k=" << k << " n=" << n << " max_pairs=" << max_pairs;
    }
  }
}

TEST_P(PackedEquivalenceTest, PooledCovarianceMatchesScalarBitwise) {
  const size_t k = GetParam();
  const Table t = NoisyTiedTable(130, k, /*seed=*/2000 + k);
  TransformOptions options;
  options.seed = 29 + k;
  options.pooled_covariance = true;
  const RefMomentsResult ref = RefMoments(t, options);
  auto moments = PairTransformMoments(t, options);
  ASSERT_TRUE(moments.ok());
  EXPECT_EQ(moments->cov.Subtract(ref.cov).MaxAbs(), 0.0) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, PackedEquivalenceTest,
                         ::testing::Values(1, 63, 64, 65, 130, 384));

TEST(TransformTest, CountingSortMatchesStableSort) {
  // The radix pass must reproduce std::stable_sort's permutation exactly:
  // nulls first, codes ascending, shuffle preserved inside tie groups.
  const Table t = NoisyTiedTable(257, 3, /*seed=*/7);
  const EncodedTable encoded = EncodedTable::Encode(t);
  Rng rng(123);
  std::vector<uint32_t> shuffled(t.num_rows());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  rng.Shuffle(&shuffled);
  for (size_t attr = 0; attr < t.num_columns(); ++attr) {
    std::vector<uint32_t> order;
    std::vector<uint32_t> buckets;
    StableSortByCodes(encoded.column_codes(attr), encoded.Cardinality(attr),
                      shuffled, &order, &buckets);
    std::vector<uint32_t> expected = shuffled;
    const auto& codes = encoded.column_codes(attr);
    std::stable_sort(
        expected.begin(), expected.end(),
        [&codes](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
    EXPECT_EQ(order, expected) << "attr " << attr;
  }
}

TEST(TransformTest, AttributePassEnumeratesWithoutMaterializing) {
  const Table t = NoisyTiedTable(97, 2, /*seed=*/11);
  const EncodedTable encoded = EncodedTable::Encode(t);
  std::vector<uint32_t> shuffled(t.num_rows());
  std::iota(shuffled.begin(), shuffled.end(), 0);
  AttributePass pass;
  pass.Reset(encoded.column_codes(0), encoded.Cardinality(0), shuffled,
             /*max_pairs=*/0, /*seed=*/1);
  // An exact pass's pairs are the n sorted positions of its order, a
  // permutation of the rows.
  EXPECT_FALSE(pass.sampled());
  EXPECT_EQ(pass.num_pairs(), t.num_rows());
  std::vector<uint32_t> rows = pass.order();
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, shuffled);

  // A sampled pass's pairs are max_pairs distinct ascending positions.
  pass.Reset(encoded.column_codes(1), encoded.Cardinality(1), shuffled,
             /*max_pairs=*/13, /*seed=*/2);
  EXPECT_TRUE(pass.sampled());
  EXPECT_EQ(pass.num_pairs(), 13u);
  ASSERT_EQ(pass.positions().size(), pass.num_pairs());
  for (size_t p = 0; p < pass.positions().size(); ++p) {
    EXPECT_LT(pass.positions()[p], t.num_rows());
    if (p > 0) {
      EXPECT_LT(pass.positions()[p - 1], pass.positions()[p]);
    }
  }
}

TEST(TransformTest, PackedRejectsDegenerateInputs) {
  Table empty{Schema({"a"})};
  Table one_row{Schema({"a"})};
  one_row.AppendRow({Value(int64_t{1})});
  for (const Table* t : {&empty, &one_row}) {
    EXPECT_FALSE(PairTransformCounts(*t).ok());
    EXPECT_FALSE(PairTransformMoments(*t).ok());
  }
}

TEST(TransformTest, SortedColumnHasHighAgreement) {
  // The sort-and-shift construction makes pairs agree on the sorted
  // attribute far more often than random pairing would.
  Table t{Schema({"x"})};
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    t.AppendRow({Value(rng.NextInt(0, 9))});
  }
  auto moments = PairTransformMoments(t);
  ASSERT_TRUE(moments.ok());
  // Random pairs agree w.p. ~0.1; sorted adjacent pairs ~0.99.
  EXPECT_GT(moments->mean[0], 0.9);
}

}  // namespace
}  // namespace fdx
