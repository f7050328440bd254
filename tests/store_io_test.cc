// The fast out-of-core I/O layer: mmap-backed chunk reads (with the
// pread path as a bit-identical fallback), the `store.mmap` /
// `store.decompress` fault points, and the varint chunk codec. The
// contract under test: every io-mode x codec combination produces the
// same bytes, compressed stores fingerprint identically to raw ones,
// and every corruption mode fails loudly with kIOError.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "data/table.h"
#include "store/chunk_codec.h"
#include "store/chunked_table.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/mmap_file.h"

namespace fdx {
namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "fdx_store_io_" + tag + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  (void)RemoveDirectoryRecursive(dir);
  return dir;
}

/// Mixed-type rows with repeats, nulls, negative ints (zigzag corner)
/// and growing dictionaries, so varint deltas are both positive and
/// negative across chunks.
Table IoTable(size_t rows) {
  Table table{Schema({"a", "b", "c"})};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    row[0] = Value(static_cast<int64_t>(r % 29) - 14);
    row[1] = r % 13 == 0 ? Value::Null()
                         : Value("v" + std::to_string((r * 7) % 17));
    row[2] = Value(static_cast<double>(r % 5) * 0.5);
    table.AppendRow(std::move(row));
  }
  return table;
}

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

std::vector<std::vector<int32_t>> AllCodes(const ChunkedTable& store) {
  std::vector<std::vector<int32_t>> codes(store.num_columns());
  for (size_t c = 0; c < store.num_columns(); ++c) {
    CodeColumn column;
    EXPECT_TRUE(store.ReadColumnCodes(c, &column).ok());
    codes[c] = column.ToInt32();
  }
  return codes;
}

TEST(MmapFileTest, MapsReadsAndReleases) {
  const std::string dir = FreshDir("mmap");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/blob.bin";
  std::string contents;
  for (int i = 0; i < 10000; ++i) contents += static_cast<char>(i % 251);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());

  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value().mapped());
  ASSERT_EQ(file.value().size(), contents.size());
  EXPECT_EQ(std::string(file.value().data(), file.value().size()), contents);
  // Touched every byte above, so some pages must be resident; dropping
  // them is advisory but must never report more resident than the
  // page-rounded mapping.
  EXPECT_GT(file.value().ResidentBytes(), 0u);
  file.value().AdviseDontNeed(0, file.value().size());
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_LE(file.value().ResidentBytes(),
            (file.value().size() + page - 1) / page * page);

  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(MmapFileTest, EmptyFileAndMissingFile) {
  const std::string dir = FreshDir("mmap_edge");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string empty = dir + "/empty.bin";
  ASSERT_TRUE(WriteFileAtomic(empty, "").ok());
  auto mapped = MmapFile::Open(empty);
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().size(), 0u);
  EXPECT_EQ(mapped.value().ResidentBytes(), 0u);

  EXPECT_FALSE(MmapFile::Open(dir + "/nope.bin").ok());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, EnvironmentOverridesDefaultIoMode) {
  ASSERT_EQ(::setenv("FDX_STORE_IO", "read", 1), 0);
  EXPECT_EQ(DefaultStoreIo(), StoreIo::kRead);
  auto store = ChunkedTable::Create(Schema({"a"}), "");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().io_mode(), StoreIo::kRead);

  ASSERT_EQ(::setenv("FDX_STORE_IO", "mmap", 1), 0);
  EXPECT_EQ(DefaultStoreIo(), StoreIo::kMmap);
  // Unrecognized values fall back to the default rather than failing.
  ASSERT_EQ(::setenv("FDX_STORE_IO", "warp-drive", 1), 0);
  EXPECT_EQ(DefaultStoreIo(), StoreIo::kMmap);
  ASSERT_EQ(::unsetenv("FDX_STORE_IO"), 0);
  EXPECT_EQ(DefaultStoreIo(), StoreIo::kMmap);
}

TEST(StoreIoTest, MmapAndReadPathsAreBitIdentical) {
  const std::string dir = FreshDir("modes");
  const Table table = IoTable(200);
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 23, &store.value());
  }
  auto via_mmap = ChunkedTable::Open(dir);
  ASSERT_TRUE(via_mmap.ok());
  via_mmap.value().set_io_mode(StoreIo::kMmap);
  auto via_read = ChunkedTable::Open(dir);
  ASSERT_TRUE(via_read.ok());
  via_read.value().set_io_mode(StoreIo::kRead);

  EXPECT_EQ(AllCodes(via_mmap.value()), AllCodes(via_read.value()));
  EXPECT_EQ(via_mmap.value().mmap_fallbacks(), 0u);
  for (size_t chunk = 0; chunk < via_mmap.value().num_chunks(); ++chunk) {
    auto a = via_mmap.value().ReadChunkValues(chunk);
    auto b = via_read.value().ReadChunkValues(chunk);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().num_rows(), b.value().num_rows());
    for (size_t r = 0; r < a.value().num_rows(); ++r) {
      for (size_t c = 0; c < a.value().num_columns(); ++c) {
        EXPECT_TRUE(a.value().cell(r, c).is_null()
                        ? b.value().cell(r, c).is_null()
                        : a.value().cell(r, c).EqualsStrict(
                              b.value().cell(r, c)))
            << "chunk " << chunk << " row " << r << " col " << c;
      }
    }
  }
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, MmapFaultFallsBackToReadPath) {
  for (const char* codec : {"", "varint"}) {
    const std::string dir =
        FreshDir(std::string("fallback_") + (codec[0] == '\0' ? "raw" : codec));
    const Table table = IoTable(90);
    {
      auto store = ChunkedTable::Create(table.schema(), dir, codec);
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, 30, &store.value());
    }
    // Armed across open *and* the column reads: raw stores only create
    // per-chunk I/O state on the first column read, compressed ones
    // already during Open's fingerprint replay.
    ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    auto store = ChunkedTable::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    store.value().set_io_mode(StoreIo::kMmap);
    const EncodedTable encoded = EncodedTable::Encode(table);
    const auto codes = AllCodes(store.value());
    DisarmFaults();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(codes[c], encoded.column_codes(c)) << "col " << c;
    }
    // Every chunk's map attempt failed; all of them fell back to pread
    // and the store still served identical bytes.
    EXPECT_EQ(store.value().mmap_fallbacks(), store.value().num_chunks());
    EXPECT_EQ(store.value().MappedResidentBytes(), 0u);
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, VarintStoreFingerprintsMatchRawStore) {
  const std::string raw_dir = FreshDir("raw");
  const std::string var_dir = FreshDir("var");
  const Table table = IoTable(150);
  auto raw = ChunkedTable::Create(table.schema(), raw_dir);
  auto var = ChunkedTable::Create(table.schema(), var_dir, "varint");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(var.ok());
  EXPECT_EQ(raw.value().codec(), "none");
  EXPECT_EQ(var.value().codec(), "varint");
  AppendInChunks(table, 31, &raw.value());
  AppendInChunks(table, 31, &var.value());

  // Fingerprints cover the uncompressed serialization, so the two
  // stores are fingerprint-identical even though their bytes differ.
  ASSERT_EQ(raw.value().num_chunks(), var.value().num_chunks());
  for (size_t i = 0; i < raw.value().num_chunks(); ++i) {
    EXPECT_EQ(raw.value().ChunkFingerprintHex(i),
              var.value().ChunkFingerprintHex(i))
        << "chunk " << i;
  }
  EXPECT_EQ(AllCodes(raw.value()), AllCodes(var.value()));

  // The codec is recorded in the manifest and survives reopen.
  auto manifest = ReadFileToString(var_dir + "/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"varint\""), std::string::npos);
  auto reopened = ChunkedTable::Open(var_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().codec(), "varint");
  EXPECT_EQ(AllCodes(reopened.value()), AllCodes(raw.value()));

  ASSERT_TRUE(RemoveDirectoryRecursive(raw_dir).ok());
  ASSERT_TRUE(RemoveDirectoryRecursive(var_dir).ok());
}

TEST(StoreIoTest, CompressedRoundTripAtExtremeChunkSizes) {
  const Table table = IoTable(97);
  const EncodedTable encoded = EncodedTable::Encode(table);
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
    const std::string dir = FreshDir("sz" + std::to_string(chunk_rows));
    auto store = ChunkedTable::Create(table.schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, chunk_rows, &store.value());
    auto reopened = ChunkedTable::Open(dir);
    ASSERT_TRUE(reopened.ok()) << chunk_rows << ": "
                               << reopened.status().message();
    const auto codes = AllCodes(reopened.value());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(codes[c], encoded.column_codes(c))
          << "chunk_rows " << chunk_rows << " col " << c;
    }
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, UnknownCodecRejected) {
  auto store = ChunkedTable::Create(Schema({"a"}), "", "zstd");
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().message().find("unknown chunk codec"),
            std::string::npos);
}

TEST(StoreIoTest, DecompressFaultSurfacesLoudly) {
  const std::string dir = FreshDir("decomp_fault");
  const Table table = IoTable(60);
  {
    auto store = ChunkedTable::Create(table.schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 30, &store.value());
  }
  auto store = ChunkedTable::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(ArmFaults(std::string(kFaultStoreDecompress) + ":1").ok());
  CodeColumn codes;
  const Status read = store.value().ReadColumnCodes(0, &codes);
  DisarmFaults();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIOError);
  EXPECT_NE(read.message().find("decompression failed"), std::string::npos);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, TruncatedCompressedChunkRejected) {
  const std::string dir = FreshDir("truncated");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(80), 80, &store.value());
  }
  const std::string victim = dir + "/chunk-000000.bin";
  auto original = ReadFileToString(victim);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(
      WriteFileAtomic(victim, original.value().substr(0, 40)).ok());
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, CorruptCompressedChunkRejected) {
  for (StoreIo io : {StoreIo::kMmap, StoreIo::kRead}) {
    const std::string dir = FreshDir(io == StoreIo::kMmap ? "cor_m" : "cor_r");
    {
      auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
      ASSERT_TRUE(store.ok());
      AppendInChunks(IoTable(80), 40, &store.value());
    }
    // Flip a byte inside the first column's compressed payload (past the
    // 32-byte header and the 3-entry size table).
    const std::string victim = dir + "/chunk-000000.bin";
    auto contents = ReadFileToString(victim);
    ASSERT_TRUE(contents.ok());
    ASSERT_GT(contents.value().size(), 70u);
    contents.value()[62] = static_cast<char>(contents.value()[62] ^ 0x5a);
    ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());
    ASSERT_EQ(::setenv("FDX_STORE_IO", io == StoreIo::kMmap ? "mmap" : "read",
                       1),
              0);
    auto reopened = ChunkedTable::Open(dir);
    ASSERT_EQ(::unsetenv("FDX_STORE_IO"), 0);
    // Either the varint decoder rejects the mangled stream or the
    // reconstructed payload fails fingerprint verification — both are
    // loud kIOError, never silently different data.
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, CorruptRawChunkRejectedInMmapMode) {
  // The PR 9 corruption test runs through pread; this is the same
  // contract through the mapped first-touch verification.
  const std::string dir = FreshDir("cor_raw_mmap");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(60), 30, &store.value());
  }
  const std::string victim = dir + "/chunk-000000.bin";
  auto contents = ReadFileToString(victim);
  ASSERT_TRUE(contents.ok());
  contents.value()[40] = static_cast<char>(contents.value()[40] ^ 0x5a);
  ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());
  ASSERT_EQ(::setenv("FDX_STORE_IO", "mmap", 1), 0);
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_EQ(::unsetenv("FDX_STORE_IO"), 0);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  EXPECT_NE(reopened.status().message().find("fingerprint mismatch"),
            std::string::npos);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, VarintCodecLookup) {
  auto none = FindChunkCodec("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), nullptr);
  auto blank = FindChunkCodec("");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(blank.value(), nullptr);
  auto varint = FindChunkCodec("varint");
  ASSERT_TRUE(varint.ok());
  ASSERT_NE(varint.value(), nullptr);
  EXPECT_STREQ(varint.value()->name(), "varint");

  // Strict decode: truncated and over-long streams are kIOError.
  const std::vector<int32_t> codes = {0, 5, -3, 1 << 30, 0, 42};
  std::string payload;
  varint.value()->EncodeColumn(codes.data(), codes.size(), &payload);
  std::vector<int32_t> out(codes.size());
  ASSERT_TRUE(varint.value()
                  ->DecodeColumn(payload.data(), payload.size(), codes.size(),
                                 out.data())
                  .ok());
  EXPECT_EQ(out, codes);
  EXPECT_EQ(varint.value()
                ->DecodeColumn(payload.data(), payload.size() - 1,
                               codes.size(), out.data())
                .code(),
            StatusCode::kIOError);
  const std::string padded = payload + '\0';
  EXPECT_EQ(varint.value()
                ->DecodeColumn(padded.data(), padded.size(), codes.size(),
                               out.data())
                .code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace fdx
