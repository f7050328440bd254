#include "store/chunked_table.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "data/csv.h"
#include "data/table.h"
#include "util/file_io.h"

namespace fdx {
namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "fdx_store_" + tag + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  (void)RemoveDirectoryRecursive(dir);
  return dir;
}

/// A mixed-type table exercising every dictionary corner: numeric merge
/// (int 3 vs double 3.0), signed zero, nulls, strings that look numeric.
Table MixedTable(size_t rows) {
  Table table{Schema({"a", "b", "c"})};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    switch (r % 5) {
      case 0:
        row[0] = Value(int64_t{3});
        break;
      case 1:
        row[0] = Value(3.0);
        break;
      case 2:
        row[0] = Value(std::string("3"));
        break;
      case 3:
        row[0] = Value(-0.0);
        break;
      default:
        row[0] = Value::Null();
        break;
    }
    row[1] = Value(static_cast<int64_t>(r % 7));
    row[2] = r % 11 == 0 ? Value::Null()
                         : Value("s" + std::to_string(r % 4));
    table.AppendRow(std::move(row));
  }
  return table;
}

/// Appends `table` to `store` in chunks of `chunk_rows` rows.
void AppendInChunks(const Table& table, size_t chunk_rows,
                    ChunkedTable* store) {
  for (size_t lo = 0; lo < table.num_rows(); lo += chunk_rows) {
    const size_t hi = std::min(table.num_rows(), lo + chunk_rows);
    Table batch{table.schema()};
    std::vector<Value> row(table.num_columns());
    for (size_t r = lo; r < hi; ++r) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row[c] = table.cell(r, c);
      }
      batch.AppendRow(row);
    }
    ASSERT_TRUE(store->AppendBatch(batch).ok());
  }
}

void ExpectCodesMatchEncode(const Table& table, const ChunkedTable& store) {
  const EncodedTable encoded = EncodedTable::Encode(table);
  ASSERT_EQ(store.num_rows(), encoded.num_rows());
  ASSERT_EQ(store.num_columns(), encoded.num_columns());
  for (size_t c = 0; c < store.num_columns(); ++c) {
    EXPECT_EQ(store.Cardinality(c), encoded.Cardinality(c)) << "col " << c;
    EXPECT_EQ(store.NullCount(c), encoded.NullCount(c)) << "col " << c;
    std::vector<int32_t> codes;
    ASSERT_TRUE(store.ReadColumnCodes(c, &codes).ok());
    EXPECT_EQ(codes, encoded.column_codes(c)) << "col " << c;
  }
}

TEST(ChunkedTableTest, TransformCodesMatchEncodeAtEveryChunkSize) {
  const Table table = MixedTable(233);
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{100}, size_t{233},
                            size_t{1000}}) {
    auto store = ChunkedTable::Create(table.schema(), "");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, chunk_rows, &store.value());
    ExpectCodesMatchEncode(table, store.value());
  }
}

TEST(ChunkedTableTest, ExactValueRoundTrip) {
  const Table table = MixedTable(40);
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  AppendInChunks(table, 9, &store.value());

  size_t row = 0;
  for (size_t chunk = 0; chunk < store.value().num_chunks(); ++chunk) {
    auto values = store.value().ReadChunkValues(chunk);
    ASSERT_TRUE(values.ok());
    for (size_t r = 0; r < values.value().num_rows(); ++r, ++row) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const Value& expected = table.cell(row, c);
        const Value& got = values.value().cell(r, c);
        ASSERT_EQ(static_cast<int>(got.type()),
                  static_cast<int>(expected.type()))
            << "row " << row << " col " << c;
        if (!expected.is_null()) {
          EXPECT_TRUE(got.EqualsStrict(expected))
              << "row " << row << " col " << c;
        }
        if (expected.type() == ValueType::kDouble) {
          // Bit-exact doubles: -0.0 must come back signed.
          EXPECT_EQ(std::signbit(got.AsDouble()),
                    std::signbit(expected.AsDouble()));
        }
      }
    }
  }
  EXPECT_EQ(row, table.num_rows());
}

TEST(ChunkedTableTest, NumericMergeSharesTransformCodeNotStorageCode) {
  Table table{Schema({"x"})};
  table.AppendRow({Value(int64_t{3})});
  table.AppendRow({Value(3.0)});
  table.AppendRow({Value(std::string("3"))});
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AppendBatch(table).ok());

  // int 3 and double 3.0 are one transform value (EncodedTable
  // semantics) but distinct storage values (exact round-trip).
  EXPECT_EQ(store.value().Cardinality(0), 2u);
  EXPECT_EQ(store.value().DictionarySize(0), 3u);
  std::vector<int32_t> codes;
  ASSERT_TRUE(store.value().ReadColumnCodes(0, &codes).ok());
  EXPECT_EQ(codes, (std::vector<int32_t>{0, 0, 1}));
}

// Every NaN cell shares one transform code apart from every number, at
// any chunk size and after a reopen; storage codes keep each NaN's exact
// bits, so ReadChunkValues returns them unchanged.
TEST(ChunkedTableTest, NanCellsGetOneTransformCodeAndKeepTheirBits) {
  const double nan = std::nan("");
  const double negative_nan = -std::nan("");
  Table table{Schema({"a", "b"})};
  table.AppendRow({Value(int64_t{1}), Value(nan)});
  table.AppendRow({Value(nan), Value(int64_t{1})});
  table.AppendRow({Value(int64_t{2}), Value(negative_nan)});
  table.AppendRow({Value(negative_nan), Value(int64_t{2})});
  table.AppendRow({Value(int64_t{1}), Value(int64_t{2})});
  for (size_t chunk_rows : {size_t{1}, size_t{2}, size_t{5}}) {
    const std::string dir = FreshDir("nan" + std::to_string(chunk_rows));
    {
      auto store = ChunkedTable::Create(table.schema(), dir);
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, chunk_rows, &store.value());
    }
    auto store = ChunkedTable::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<int32_t> codes;
    ASSERT_TRUE(store->ReadColumnCodes(0, &codes).ok());
    EXPECT_EQ(codes, (std::vector<int32_t>{0, 1, 2, 1, 0}));
    EXPECT_EQ(store->Cardinality(0), 3u);
    ASSERT_TRUE(store->ReadColumnCodes(1, &codes).ok());
    EXPECT_EQ(codes, (std::vector<int32_t>{0, 1, 0, 2, 2}));
    EXPECT_EQ(store->Cardinality(1), 3u);
    EXPECT_EQ(store->DictionarySize(1), 4u);
    size_t row = 0;
    for (size_t chunk = 0; chunk < store->num_chunks(); ++chunk) {
      auto values = store->ReadChunkValues(chunk);
      ASSERT_TRUE(values.ok());
      for (size_t r = 0; r < values->num_rows(); ++r, ++row) {
        const Value& got = values->cell(r, 0);
        const Value& want = table.cell(row, 0);
        ASSERT_EQ(got.type(), want.type());
        if (want.type() == ValueType::kDouble) {
          EXPECT_TRUE(std::isnan(got.AsDouble()));
          EXPECT_EQ(std::signbit(got.AsDouble()),
                    std::signbit(want.AsDouble()));
        }
      }
    }
    (void)RemoveDirectoryRecursive(dir);
  }
}

TEST(ChunkedTableTest, SpillReopenPreservesEverything) {
  const std::string dir = FreshDir("reopen");
  const Table table = MixedTable(120);
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(store.value().spilled());
    AppendInChunks(table, 17, &store.value());
    ExpectCodesMatchEncode(table, store.value());
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().schema().names(), table.schema().names());
  ExpectCodesMatchEncode(table, reopened.value());

  // Appending after reopen continues the dictionaries seamlessly.
  Table more{table.schema()};
  more.AppendRow({Value(int64_t{3}), Value(int64_t{99}), Value::Null()});
  ASSERT_TRUE(reopened.value().AppendBatch(more).ok());
  Table concat = table;
  concat.AppendRow({Value(int64_t{3}), Value(int64_t{99}), Value::Null()});
  ExpectCodesMatchEncode(concat, reopened.value());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(ChunkedTableTest, ReopenedFingerprintsMatchWriter) {
  const std::string dir = FreshDir("fp");
  const Table table = MixedTable(50);
  std::vector<std::string> written;
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 20, &store.value());
    for (size_t i = 0; i < store.value().num_chunks(); ++i) {
      written.push_back(store.value().ChunkFingerprintHex(i));
    }
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened.value().num_chunks(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(reopened.value().ChunkFingerprintHex(i), written[i]);
  }
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(ChunkedTableTest, CorruptChunkFailsLoudly) {
  const std::string dir = FreshDir("corrupt");
  {
    auto store = ChunkedTable::Create(Schema({"a", "b", "c"}), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(MixedTable(60), 30, &store.value());
  }
  // Flip one byte in the middle of the first chunk's code region.
  const std::string victim = dir + "/chunk-000000.bin";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(40);
    f.write(&byte, 1);
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  EXPECT_NE(reopened.status().message().find("fingerprint mismatch"),
            std::string::npos);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(ChunkedTableTest, RejectsBadBatches) {
  auto store = ChunkedTable::Create(Schema({"a", "b"}), "");
  ASSERT_TRUE(store.ok());
  Table empty{Schema({"a", "b"})};
  EXPECT_EQ(store.value().AppendBatch(empty).code(),
            StatusCode::kInvalidArgument);
  Table narrow{Schema({"a"})};
  narrow.AppendRow({Value(int64_t{1})});
  EXPECT_EQ(store.value().AppendBatch(narrow).code(),
            StatusCode::kInvalidArgument);
}

TEST(ChunkedTableTest, ChunkedCsvIngestMatchesWholeFileRead) {
  const std::string csv =
      "city,state,zip\n"
      "boston,ma,02134\n"
      "chicago,il,60606\n"
      "boston,ma,02134\n"
      "NULL,ma,02134\n"
      "denver,co,80202\n";
  auto whole = ReadCsvFromString(csv, {});
  ASSERT_TRUE(whole.ok());

  auto store = ChunkedTable::Create(Schema({"city", "state", "zip"}), "");
  ASSERT_TRUE(store.ok());
  const Status read = ReadCsvChunkedFromString(
      csv, {}, /*chunk_rows=*/2, [&](Table&& chunk) {
        if (chunk.num_rows() == 0) return Status::OK();
        return store.value().AppendBatch(chunk);
      });
  ASSERT_TRUE(read.ok());
  ExpectCodesMatchEncode(whole.value(), store.value());
}

}  // namespace
}  // namespace fdx
