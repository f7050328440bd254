#include "store/chunked_table.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "data/csv.h"
#include "data/table.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace fdx {
namespace {

uint64_t ReadU64Le(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string FingerprintOf(const std::string& bytes) {
  Fingerprint fp;
  fp.Update(bytes.data(), bytes.size());
  return fp.Hex();
}

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
    CodeColumn codes;
    ASSERT_TRUE(store.ReadColumnCodes(c, &codes).ok());
    EXPECT_EQ(codes.width(), CodeWidthFor(encoded.Cardinality(c)));
    EXPECT_EQ(codes.ToInt32(), encoded.column_codes(c)) << "col " << c;
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
  CodeColumn codes;
  ASSERT_TRUE(store.value().ReadColumnCodes(0, &codes).ok());
  EXPECT_EQ(codes.ToInt32(), (std::vector<int32_t>{0, 0, 1}));
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
    CodeColumn codes;
    ASSERT_TRUE(store->ReadColumnCodes(0, &codes).ok());
    EXPECT_EQ(codes.ToInt32(), (std::vector<int32_t>{0, 1, 2, 1, 0}));
    EXPECT_EQ(store->Cardinality(0), 3u);
    ASSERT_TRUE(store->ReadColumnCodes(1, &codes).ok());
    EXPECT_EQ(codes.ToInt32(), (std::vector<int32_t>{0, 1, 0, 2, 2}));
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

/// Replaces the first `from` in `path` with `to`.
void ReplaceInFile(const std::string& path, const std::string& from,
                   const std::string& to) {
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  const size_t at = text->find(from);
  ASSERT_NE(at, std::string::npos) << from << " not in " << path;
  text->replace(at, from.size(), to);
  ASSERT_TRUE(WriteFileAtomic(path, *text).ok());
}

/// Edits a spilled store's manifest and re-seals it: the manifest ends
/// with `,"fingerprint":"<hex>"}` over the bytes before it, so an edit
/// meant to reach the checks behind that one recomputes it.
void EditManifest(const std::string& dir, const std::string& from,
                  const std::string& to) {
  const std::string path = dir + "/manifest.json";
  ReplaceInFile(path, from, to);
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  const std::string seal = ",\"fingerprint\":\"";
  const size_t at = text->rfind(seal);
  ASSERT_NE(at, std::string::npos) << *text;
  const std::string body = text->substr(0, at);
  ASSERT_TRUE(
      WriteFileAtomic(path, body + seal + FingerprintOf(body) + "\"}").ok());
}

/// A two-chunk spilled store of one column; the second chunk's
/// dictionary delta starts at 3.
std::string TwoChunkStore() {
  const std::string dir = FreshDir("ints");
  auto store = ChunkedTable::Create(Schema({"a"}), dir);
  EXPECT_TRUE(store.ok());
  for (int batch = 0; batch < 2; ++batch) {
    Table rows{Schema({"a"})};
    for (int r = 0; r < 3; ++r) {
      rows.AppendRow({Value(static_cast<int64_t>(batch * 3 + r))});
    }
    EXPECT_TRUE(store->AppendBatch(rows).ok());
  }
  return dir;
}

TEST(ChunkedTableTest, ManifestIntegersMustFit) {
  // version, rows and total_rows are integers: a fractional, negative or
  // out-of-range number fails Open loudly instead of being truncated or
  // wrapped by a cast.
  const struct {
    const char* from;
    const char* to;
  } cases[] = {
      {"\"version\":1", "\"version\":1.5"},
      {"\"version\":1", "\"version\":-1"},
      {"\"version\":1", "\"version\":1e30"},
      {"\"rows\":3", "\"rows\":3.5"},
      {"\"rows\":3", "\"rows\":-3"},
      {"\"rows\":3", "\"rows\":1e30"},
      {"\"total_rows\":6", "\"total_rows\":6.5"},
      {"\"total_rows\":6", "\"total_rows\":-6"},
      {"\"total_rows\":6", "\"total_rows\":1e30"},
  };
  for (const auto& c : cases) {
    const std::string dir = TwoChunkStore();
    ASSERT_TRUE(ChunkedTable::Open(dir).ok());
    EditManifest(dir, c.from, c.to);
    auto reopened = ChunkedTable::Open(dir);
    ASSERT_FALSE(reopened.ok()) << c.to;
    EXPECT_EQ(reopened.status().code(), StatusCode::kIOError) << c.to;
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(ChunkedTableTest, DictionaryDeltaStartMustFit) {
  // The same for a dictionary delta's start. The chunk is rewritten with
  // a consistent header and fingerprint, so only the number is wrong.
  for (const char* start : {"3.5", "-3", "1e30"}) {
    const std::string dir = TwoChunkStore();
    const std::string chunk = dir + "/chunk-000001.bin";
    auto text = ReadFileToString(chunk);
    ASSERT_TRUE(text.ok());
    const std::string before = *text;
    const size_t at = text->find("\"start\":3");
    ASSERT_NE(at, std::string::npos);
    text->replace(at, 9, std::string("\"start\":") + start);
    const uint64_t dict_bytes =
        ReadU64Le(text->data() + 24) + text->size() - before.size();
    for (int i = 0; i < 8; ++i) {
      (*text)[24 + i] = static_cast<char>(dict_bytes >> (8 * i));
    }
    ASSERT_TRUE(WriteFileAtomic(chunk, *text).ok());
    EditManifest(dir, FingerprintOf(before), FingerprintOf(*text));
    auto reopened = ChunkedTable::Open(dir);
    ASSERT_FALSE(reopened.ok()) << start;
    EXPECT_EQ(reopened.status().code(), StatusCode::kIOError) << start;
    EXPECT_NE(reopened.status().message().find("'start'"), std::string::npos)
        << reopened.status().message();
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(ChunkedTableTest, ManifestFingerprintCoversColumnNames) {
  // A renamed column used to open silently. The manifest's fingerprint
  // covers its schema, codec, row count, chunk list and commit string.
  const std::string dir = TwoChunkStore();
  auto store = ChunkedTable::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->commit(), "");
  ReplaceInFile(dir + "/manifest.json", "[\"a\"]", "[\"b\"]");
  auto renamed = ChunkedTable::Open(dir);
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kIOError);
  EXPECT_NE(renamed.status().message().find("manifest fingerprint mismatch"),
            std::string::npos)
      << renamed.status().message();
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(ChunkedTableTest, CommitStringRoundTripsThroughTheManifest) {
  const std::string dir = FreshDir("commit");
  Table rows{Schema({"a"})};
  rows.AppendRow({Value(int64_t{1})});
  {
    auto store = ChunkedTable::Create(rows.schema(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendBatch(rows, "first").ok());
    ASSERT_TRUE(store->AppendBatch(rows, "second").ok());
    EXPECT_EQ(store->commit(), "second");
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->commit(), "second");
  EditManifest(dir, "\"commit\":\"second\"", "\"commit\":\"third\"");
  reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->commit(), "third");
  ReplaceInFile(dir + "/manifest.json", "third", "fifth");
  EXPECT_FALSE(ChunkedTable::Open(dir).ok());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

/// Every file of a store directory, by name.
std::map<std::string, std::string> StoreFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& name : names.ok() ? *names
                                            : std::vector<std::string>{}) {
    auto bytes = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(bytes.ok()) << name;
    files[name] = bytes.ok() ? *bytes : "";
  }
  return files;
}

TEST(ChunkedTableTest, FailedWriteLeavesTheStoreAsIfTheBatchNeverCame) {
  // A failed chunk write (visit 1 of store.write) or manifest write
  // (visit 2) must undo the whole append: dictionaries, counters, chunk
  // list and files. After one more append, the store's files are byte
  // for byte those of a store that never saw the failed batch, and its
  // codes are the same. The failed batch brings new values, an int/
  // double twin among them, so a half-undone dictionary would show in
  // the next chunk's delta and in the transform codes.
  const Table table = MixedTable(60);
  auto slice = [&](size_t lo, size_t hi) {
    Table batch{table.schema()};
    for (size_t r = lo; r < hi; ++r) {
      batch.AppendRow({table.cell(r, 0), table.cell(r, 1), table.cell(r, 2)});
    }
    return batch;
  };
  Table failed = slice(20, 30);
  failed.AppendRow({Value(7.5), Value(int64_t{70}), Value(std::string("new"))});
  failed.AppendRow({Value(int64_t{8}), Value(70.0), Value(std::string("t"))});
  Table last = slice(30, 60);
  last.AppendRow({Value(8.0), Value(int64_t{71}), Value(std::string("t"))});
  for (const char* codec : {"none", "varint"}) {
    for (const char* visit : {"1", "2"}) {
      SCOPED_TRACE(std::string(codec) + " store.write:" + visit);
      const std::string dir = FreshDir(std::string("failed_") + codec);
      const std::string ref_dir = FreshDir(std::string("clean_") + codec);
      auto store = ChunkedTable::Create(table.schema(), dir, codec);
      auto clean = ChunkedTable::Create(table.schema(), ref_dir, codec);
      ASSERT_TRUE(store.ok() && clean.ok());
      ASSERT_TRUE(store->AppendBatch(slice(0, 20), "one").ok());
      ASSERT_TRUE(clean->AppendBatch(slice(0, 20), "one").ok());
      ASSERT_TRUE(ArmFaults(std::string("store.write:") + visit).ok());
      const Status status = store->AppendBatch(failed, "two");
      DisarmFaults();
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kIOError);
      EXPECT_EQ(store->num_chunks(), 1u);
      EXPECT_EQ(store->num_rows(), 20u);
      EXPECT_EQ(store->commit(), "one");
      EXPECT_EQ(StoreFiles(dir), StoreFiles(ref_dir));
      ASSERT_TRUE(store->AppendBatch(last, "three").ok());
      ASSERT_TRUE(clean->AppendBatch(last, "three").ok());
      EXPECT_EQ(StoreFiles(dir), StoreFiles(ref_dir));
      for (size_t c = 0; c < table.num_columns(); ++c) {
        EXPECT_EQ(store->Cardinality(c), clean->Cardinality(c));
        EXPECT_EQ(store->DictionarySize(c), clean->DictionarySize(c));
        EXPECT_EQ(store->NullCount(c), clean->NullCount(c));
        CodeColumn got, want;
        ASSERT_TRUE(store->ReadColumnCodes(c, &got).ok());
        ASSERT_TRUE(clean->ReadColumnCodes(c, &want).ok());
        EXPECT_EQ(got.ToInt32(), want.ToInt32()) << "col " << c;
      }
      auto reopened = ChunkedTable::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ(reopened->num_rows(), 51u);
      ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
      ASSERT_TRUE(RemoveDirectoryRecursive(ref_dir).ok());
    }
  }
}

TEST(ChunkedTableTest, ChunkWidthsFollowTheCommittedDictionary) {
  // A column's payload width is the narrowest that holds the storage
  // dictionary committed at its chunk: 200 values fit one byte, 300 need
  // two, so the second chunk is written wider and the first is widened
  // on read.
  const std::string dir = FreshDir("widths");
  Table table{Schema({"a"})};
  for (int r = 0; r < 400; ++r) {
    table.AppendRow({Value(static_cast<int64_t>(r < 200 ? r : r - 100))});
  }
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 200, &store.value());
  }
  for (const char* file : {"chunk-000000.bin", "chunk-000001.bin"}) {
    auto bytes = ReadFileToString(dir + "/" + file);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes->substr(0, 8), "FDXCHNK3") << file;
    EXPECT_EQ(static_cast<int>((*bytes)[32]), file[11] == '0' ? 1 : 2)
        << file;
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectCodesMatchEncode(table, reopened.value());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

/// Code payload bytes of the single column of a one-chunk store.
uint64_t PayloadBytes(const std::string& dir) {
  auto bytes = ReadFileToString(dir + "/chunk-000000.bin");
  EXPECT_TRUE(bytes.ok());
  const bool compressed = bytes->substr(0, 8) == "FDXCHNK4";
  // magic, rows, cols, dict_bytes, one width byte, [one u64 size].
  const uint64_t header = 32 + 1 + (compressed ? 8 : 0);
  return bytes->size() - header - ReadU64Le(bytes->data() + 24);
}

TEST(ChunkedTableTest, VarintDecisionByteCounts) {
  // Narrow raw chunks against varint on the two column shapes that
  // decide whether the codec earns its keep. Perfbench-shaped codes
  // (random, below 216) take one byte raw and about 1.5 varint; a
  // key-like column (first-seen codes rising by one per row, past
  // 65,535 values) takes four bytes raw and one varint. Varint stays.
  const size_t rows = 65536;
  Rng rng(216);
  Table low{Schema({"a"})};
  Table key{Schema({"a"})};
  for (size_t r = 0; r < rows; ++r) {
    low.AppendRow({Value(static_cast<int64_t>(rng.NextUint64(216)))});
    key.AppendRow({Value(static_cast<int64_t>(r))});
  }
  const auto payload = [&](const Table& table, const char* codec) {
    const std::string dir = FreshDir(std::string("varint_") + codec);
    auto store = ChunkedTable::Create(table.schema(), dir, codec);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE(store->AppendBatch(table).ok());
    const uint64_t bytes = PayloadBytes(dir);
    EXPECT_TRUE(RemoveDirectoryRecursive(dir).ok());
    return bytes;
  };
  const uint64_t low_raw = payload(low, "none");
  const uint64_t low_varint = payload(low, "varint");
  const uint64_t key_raw = payload(key, "none");
  const uint64_t key_varint = payload(key, "varint");
  EXPECT_EQ(low_raw, rows);
  EXPECT_EQ(key_raw, 4 * rows);
  EXPECT_EQ(key_varint, rows);
  // Narrow raw wins on the low-cardinality column by more than 10%...
  EXPECT_LT(low_raw * 11, low_varint * 10) << low_varint;
  // ...and varint wins on the key-like column by 4x.
  EXPECT_EQ(key_raw, 4 * key_varint);
  std::printf("low-cardinality: raw %llu, varint %llu; key-like: raw %llu, "
              "varint %llu bytes\n",
              static_cast<unsigned long long>(low_raw),
              static_cast<unsigned long long>(low_varint),
              static_cast<unsigned long long>(key_raw),
              static_cast<unsigned long long>(key_varint));
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
