// Bit-identity of the runtime-dispatched SIMD kernels: every level's
// gather (at code widths 1, 2 and 4) / pack / panel pack output must
// equal the scalar fallback's (and every level's Gram a per-bit count)
// exactly (integer kernels, so "close" is not a thing — bytes or bust),
// one pass's packed bits must be identical at every width and level, and
// the full transform must produce identical moments at every level.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pairs.h"
#include "core/transform.h"
#include "core/transform_kernels.h"
#include "data/code_column.h"
#include "data/table.h"
#include "gram_oracle.h"
#include "linalg/bitmatrix.h"
#include "linalg/simd.h"
#include "util/rng.h"

namespace fdx {
namespace {

/// Restores the ambient dispatch level even when a test fails mid-way.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { ambient_ = ActiveSimdLevel(); }
  void TearDown() override { SetSimdLevel(ambient_); }

  /// Levels to cross-check: scalar always, plus the detected level when
  /// it differs. On a machine without vector support this degenerates
  /// to {scalar} and the test still passes (vacuous cross-check).
  static std::vector<SimdLevel> LevelsToTest() {
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (DetectedSimdLevel() != SimdLevel::kScalar) {
      levels.push_back(DetectedSimdLevel());
    }
    // When AVX-512 is detected, AVX2 is a distinct intermediate table.
    if (DetectedSimdLevel() == SimdLevel::kAvx512) {
      levels.push_back(SimdLevel::kAvx2);
    }
    return levels;
  }

 private:
  SimdLevel ambient_ = SimdLevel::kScalar;
};

/// Random code stream over a small alphabet with nulls and tie runs —
/// the regime the pack compare actually sees (sorted codes arrive in
/// runs; nulls sort first).
std::vector<int32_t> RandomCodes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = rng.NextBernoulli(0.2)
                   ? EncodedTable::kNullCode
                   : static_cast<int32_t>(rng.NextInt(0, 4));
  }
  return codes;
}

const size_t kSizes[] = {1, 2, 63, 64, 65, 128, 130, 257, 1000};

TEST_F(SimdTest, DetectionAndOverrideAreConsistent) {
  const SimdLevel detected = DetectedSimdLevel();
  // Override requests clamp to the detected ceiling.
  EXPECT_EQ(SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdOps().level, SimdLevel::kScalar);
  const SimdLevel granted = SetSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(granted), static_cast<int>(detected));
  EXPECT_EQ(ActiveSimdLevel(), granted);
  // Every level resolves to a fully-populated kernel table.
  for (SimdLevel level : LevelsToTest()) {
    const SimdOps& ops = SimdOpsForLevel(level);
    EXPECT_EQ(ops.level, level) << SimdLevelName(level);
    EXPECT_NE(ops.gather_u8, nullptr);
    EXPECT_NE(ops.gather_u16, nullptr);
    EXPECT_NE(ops.gather_u32, nullptr);
    EXPECT_NE(ops.pack_adjacent_equal, nullptr);
    EXPECT_NE(ops.pack_panel, nullptr);
    EXPECT_NE(ops.gram, nullptr);
  }
}

TEST_F(SimdTest, GatherMatchesScalarBitwise) {
  // Every level (scalar included) against first principles, at every
  // code width. Random bytes hit every code value of every width, the
  // all-ones null included; the buffer is exactly n codes long, so a
  // kernel that reads past the last code trips the sanitizers. Narrow
  // codes widen by zero extension, 4-byte codes keep their int32 bits.
  for (unsigned width : {1u, 2u, 4u}) {
    for (size_t n : kSizes) {
      Rng rng(11 + n + width);
      std::vector<uint8_t> codes(n * width);
      for (uint8_t& byte : codes) {
        byte = static_cast<uint8_t>(rng.engine()());
      }
      // A permutation with structure a stride-1 gather would not see.
      std::vector<uint32_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
      rng.Shuffle(&order);
      std::vector<int32_t> want(n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t code = 0;
        std::memcpy(&code, codes.data() + order[i] * width, width);
        want[i] = static_cast<int32_t>(code);
      }
      for (SimdLevel level : LevelsToTest()) {
        const SimdOps& ops = SimdOpsForLevel(level);
        std::vector<int32_t> got(n, -7);
        ops.gather(width)(codes.data(), order.data(), n, got.data());
        EXPECT_EQ(got, want)
            << SimdLevelName(level) << " width=" << width << " n=" << n;
      }
    }
  }
}

/// `codes` (int32, kNullCode for nulls) stored at `width` bytes.
CodeColumn AtWidth(const std::vector<int32_t>& codes, unsigned width) {
  CodeColumn column;
  column.Reset(width, codes.size());
  DispatchCodeWidth(width, [&](auto zero) {
    using T = decltype(zero);
    for (size_t i = 0; i < codes.size(); ++i) {
      StoreCode<T>(column.mutable_data(), i, static_cast<T>(codes[i]));
    }
  });
  return column;
}

TEST_F(SimdTest, PassBitsIdenticalAtEveryWidthAndLevel) {
  // One pass's sort order and packed equality bits from the same codes
  // viewed at 1, 2 and 4 bytes, at every dispatch level, must equal the
  // scalar int32 run — across word and pack-block boundaries, with
  // nulls, in the exact and the sampled regimes.
  for (size_t rows : {size_t{2}, size_t{63}, size_t{65}, size_t{4097},
                      size_t{9000}}) {
    const std::vector<int32_t> codes = RandomCodes(rows, 300 + rows);
    Rng rng(rows);
    std::vector<uint32_t> shuffled(rows);
    for (size_t i = 0; i < rows; ++i) shuffled[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&shuffled);
    for (size_t max_pairs : {size_t{0}, size_t{40}}) {
      const auto pack = [&](CodeView view, const AttributePass& pass) {
        BitMatrix bits(pass.num_pairs(), 1);
        auto scratch = std::make_unique<PackScratch>();
        PackColumnPass(view, pass, bits.column_words(0), scratch.get());
        return bits;
      };
      SetSimdLevel(SimdLevel::kScalar);
      AttributePass want_pass;
      want_pass.Reset(codes, 5, shuffled, max_pairs, 9);
      const BitMatrix want = pack(codes, want_pass);
      for (unsigned width : {1u, 2u, 4u}) {
        const CodeColumn column = AtWidth(codes, width);
        for (SimdLevel level : LevelsToTest()) {
          SetSimdLevel(level);
          AttributePass pass;
          pass.Reset(column.view(), 5, shuffled, max_pairs, 9);
          EXPECT_EQ(pass.order(), want_pass.order())
              << "width=" << width << " rows=" << rows;
          EXPECT_TRUE(pack(column.view(), pass).IdenticalTo(want))
              << SimdLevelName(level) << " width=" << width
              << " rows=" << rows << " max_pairs=" << max_pairs;
        }
      }
    }
  }
}

TEST_F(SimdTest, PackAdjacentEqualMatchesScalarBitwise) {
  const SimdOps& scalar = SimdOpsForLevel(SimdLevel::kScalar);
  for (size_t n : kSizes) {
    const std::vector<int32_t> g = RandomCodes(n, 31 + n);
    const size_t nwords = (n - 1) / 64 + 1;
    std::vector<uint64_t> want(nwords, 0);
    const size_t want_packed = scalar.pack_adjacent_equal(
        g.data(), n, EncodedTable::kNullCode, want.data());
    EXPECT_EQ(want_packed, ((n - 1) / 64) * 64);
    // Scalar words agree with first principles.
    for (size_t j = 0; j < want_packed; ++j) {
      const uint64_t bit = (want[j / 64] >> (j % 64)) & 1;
      const uint64_t expect =
          (g[j] != EncodedTable::kNullCode && g[j] == g[j + 1]) ? 1 : 0;
      ASSERT_EQ(bit, expect) << "n=" << n << " j=" << j;
    }
    for (SimdLevel level : LevelsToTest()) {
      const SimdOps& ops = SimdOpsForLevel(level);
      std::vector<uint64_t> got(nwords, 0);
      const size_t packed = ops.pack_adjacent_equal(
          g.data(), n, EncodedTable::kNullCode, got.data());
      EXPECT_EQ(packed, want_packed) << SimdLevelName(level) << " n=" << n;
      for (size_t w = 0; w < packed / 64; ++w) {
        EXPECT_EQ(got[w], want[w])
            << SimdLevelName(level) << " n=" << n << " word=" << w;
      }
    }
  }
}

TEST_F(SimdTest, PackPanelMatchesScalarBitwise) {
  // Every level's panel pack against the scalar one, and the scalar one
  // against first principles, on panels of random bytes: each code is a
  // tie-prone 0 or 1, its width's all-ones null, or random bytes, so
  // every code value of every width turns up. Shapes mix the widths and
  // cross the 64-column group and the one-line row; pair counts cross
  // the 64-pair block; passes are exact and sampled.
  struct Shape {
    size_t ones, twos, fours;
  };
  const Shape shapes[] = {{1, 0, 0},  {12, 0, 0},  {0, 1, 0},   {0, 0, 1},
                          {63, 2, 1}, {64, 0, 0},  {65, 3, 2},  {5, 17, 9},
                          {0, 40, 0}, {0, 0, 20},  {200, 70, 30}, {384, 0, 0}};
  for (const Shape& shape : shapes) {
    const size_t k = shape.ones + shape.twos + shape.fours;
    const size_t row_bytes = shape.ones + 2 * shape.twos + 4 * shape.fours;
    for (size_t n : {size_t{2}, size_t{63}, size_t{65}, size_t{130},
                     size_t{1000}}) {
      Rng rng(7 * n + k);
      std::vector<uint8_t> rows(n * row_bytes + kPanelTailBytes);
      std::vector<unsigned> widths;
      for (size_t j = 0; j < k; ++j) {
        widths.push_back(j < shape.ones ? 1 : j < shape.ones + shape.twos ? 2
                                                                          : 4);
      }
      for (size_t r = 0; r < n; ++r) {
        uint8_t* code = rows.data() + r * row_bytes;
        for (unsigned width : widths) {
          const double pick = rng.NextDouble();
          for (unsigned byte = 0; byte < width; ++byte) {
            code[byte] = pick < 0.4   ? (byte == 0 ? rng.NextInt(0, 1) : 0)
                         : pick < 0.6 ? 0xFF
                                      : static_cast<uint8_t>(rng.engine()());
          }
          code += width;
        }
      }
      std::vector<uint32_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
      rng.Shuffle(&order);
      std::vector<uint32_t> column_of(k);
      for (size_t j = 0; j < k; ++j) {
        column_of[j] = static_cast<uint32_t>(k - 1 - j);
      }
      PanelView panel;
      panel.rows = rows.data();
      panel.stride = row_bytes;
      panel.ones = shape.ones;
      panel.twos = shape.twos;
      panel.fours = shape.fours;
      panel.column_of = column_of.data();
      std::vector<uint32_t> sampled;
      for (uint32_t s = 0; s < n; s += 3) sampled.push_back(s);
      sampled.back() = static_cast<uint32_t>(n - 1);  // the wrap pair
      for (bool exact : {true, false}) {
        PanelPairs pairs;
        pairs.order = order.data();
        pairs.n = n;
        pairs.positions = exact ? nullptr : sampled.data();
        pairs.num_pairs = exact ? n : sampled.size();
        const size_t wpc = (pairs.num_pairs + 63) / 64;
        std::vector<uint64_t> scratch(PanelScratchWords(k, row_bytes));
        std::vector<uint64_t> want(k * wpc, 0x5A5A5A5A5A5A5A5Aull);
        SimdOpsForLevel(SimdLevel::kScalar)
            .pack_panel(panel, pairs, want.data(), wpc, scratch.data());
        for (size_t p = 0; p < pairs.num_pairs; ++p) {
          const size_t s = exact ? p : sampled[p];
          const uint8_t* a = rows.data() + order[s] * row_bytes;
          const uint8_t* b = rows.data() + order[s + 1 == n ? 0 : s + 1] *
                                               row_bytes;
          size_t at = 0;
          for (size_t j = 0; j < k; ++j) {
            const unsigned width = widths[j];
            bool null = true;
            for (unsigned byte = 0; byte < width; ++byte) {
              null = null && a[at + byte] == 0xFF;
            }
            const bool equal =
                !null && std::memcmp(a + at, b + at, width) == 0;
            at += width;
            const uint64_t bit =
                (want[column_of[j] * wpc + p / 64] >> (p % 64)) & 1;
            ASSERT_EQ(bit, equal ? 1u : 0u)
                << "k=" << k << " n=" << n << " pair " << p << " col " << j;
          }
        }
        for (size_t col = 0; col < k; ++col) {
          if (pairs.num_pairs % 64 == 0) break;
          EXPECT_EQ(want[col * wpc + wpc - 1] >> (pairs.num_pairs % 64), 0u)
              << "padding bits, k=" << k << " n=" << n;
        }
        for (SimdLevel level : LevelsToTest()) {
          std::vector<uint64_t> got(k * wpc, 0xA5A5A5A5A5A5A5A5ull);
          SimdOpsForLevel(level).pack_panel(panel, pairs, got.data(), wpc,
                                            scratch.data());
          EXPECT_EQ(got, want) << SimdLevelName(level) << " k=" << k
                               << " n=" << n << " exact=" << exact;
        }
      }
    }
  }
}

/// A k-column bit matrix of `words_per_column` whole words per column
/// (every bit a row), at one of four densities: 0 = empty, 1 = ~10%
/// (a `wide` pass averages 38.4 set bits of 384), 2 = ~50%, 3 = full.
BitMatrix GramInput(size_t k, size_t words_per_column, int density,
                    uint64_t seed) {
  BitMatrix bits(words_per_column * 64, k);
  Rng rng(seed);
  for (size_t c = 0; c < k; ++c) {
    uint64_t* words = bits.column_words(c);
    for (size_t w = 0; w < words_per_column; ++w) {
      uint64_t word = 0;
      if (density == 1) {
        for (unsigned b = 0; b < 64; ++b) {
          if (rng.NextBernoulli(0.1)) word |= uint64_t{1} << b;
        }
      } else if (density == 2) {
        word = (static_cast<uint64_t>(rng.engine()()) << 32) ^
               rng.engine()();
      } else if (density == 3) {
        word = ~uint64_t{0};
      }
      words[w] = word;
    }
  }
  return bits;
}

TEST_F(SimdTest, GramMatchesFirstPrinciples) {
  // Every level against a per-bit count (tests/gram_oracle.h), into
  // accumulators that start non-zero, so a kernel that overwrites rather
  // than adds fails. The shapes cross k mod 4 (edge tiles) with words per
  // column mod 8 (tail words) and the block edges; the input is exactly
  // k columns long, so a read past the last word trips the sanitizers.
  struct Shape {
    size_t k;
    size_t words_per_column;
  };
  std::vector<Shape> shapes;
  for (size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 16u, 17u, 63u, 64u,
                   65u, 130u}) {
    for (size_t wpc : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 65u}) {
      shapes.push_back({k, wpc});
    }
  }
  const size_t block = kGramWordsPerBlock;
  for (size_t k : {1u, 5u, 9u, 17u}) {
    for (size_t wpc : {block - 1, block, block + 1, 2 * block + 3}) {
      shapes.push_back({k, wpc});
    }
  }
  for (const Shape& shape : shapes) {
    const size_t k = shape.k;
    for (int density = 0; density < 4; ++density) {
      const BitMatrix bits = GramInput(k, shape.words_per_column, density,
                                       k * 1000 + shape.words_per_column);
      const oracle::BitMoments want = oracle::CountBitMoments(bits);
      for (SimdLevel level : LevelsToTest()) {
        std::vector<uint64_t> counts(k);
        std::vector<uint64_t> co_counts(k * k);
        for (size_t c = 0; c < k; ++c) counts[c] = 7 + c;
        for (size_t i = 0; i < k * k; ++i) co_counts[i] = 1000 + i;
        SimdOpsForLevel(level).gram(bits.column_words(0), k,
                                    shape.words_per_column, counts.data(),
                                    co_counts.data());
        for (size_t c = 0; c < k; ++c) counts[c] -= 7 + c;
        for (size_t i = 0; i < k * k; ++i) co_counts[i] -= 1000 + i;
        EXPECT_EQ(counts, want.counts)
            << SimdLevelName(level) << " k=" << k
            << " words=" << shape.words_per_column << " density=" << density;
        EXPECT_EQ(co_counts, want.co_counts)
            << SimdLevelName(level) << " k=" << k
            << " words=" << shape.words_per_column << " density=" << density;
      }
    }
  }
}

/// A table with ties (tiny domain) and ~20% nulls — the adversarial
/// regime for the null-never-matches rule in the vector compare.
Table NoisyTiedTable(size_t rows, size_t cols, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  Table t{Schema(std::move(names))};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBernoulli(0.2)) {
        row.emplace_back();  // null
      } else {
        row.emplace_back(Value(rng.NextInt(0, 3)));
      }
    }
    t.AppendRow(std::move(row));
  }
  return t;
}

TEST_F(SimdTest, FullTransformIsBitIdenticalAcrossLevels) {
  // End-to-end: the integer moments at every dispatch level must equal
  // the scalar run exactly, across word-boundary row counts and both the
  // exact and sampled pair regimes.
  for (size_t rows : {63u, 64u, 65u, 130u, 300u}) {
    const Table t = NoisyTiedTable(rows, 5, 900 + rows);
    for (size_t max_pairs : {size_t{0}, size_t{40}}) {
      TransformOptions options;
      options.seed = 17;
      options.max_pairs_per_attribute = max_pairs;
      SetSimdLevel(SimdLevel::kScalar);
      auto scalar_counts = PairTransformCounts(t, options);
      ASSERT_TRUE(scalar_counts.ok());
      for (SimdLevel level : LevelsToTest()) {
        SetSimdLevel(level);
        auto counts = PairTransformCounts(t, options);
        ASSERT_TRUE(counts.ok()) << SimdLevelName(level);
        EXPECT_EQ(counts->counts, scalar_counts->counts)
            << SimdLevelName(level) << " rows=" << rows
            << " max_pairs=" << max_pairs;
        EXPECT_EQ(counts->co_counts, scalar_counts->co_counts)
            << SimdLevelName(level);
        EXPECT_EQ(counts->num_samples, scalar_counts->num_samples);
      }
    }
  }
}

}  // namespace
}  // namespace fdx
