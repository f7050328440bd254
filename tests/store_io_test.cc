// The out-of-core read path: pread chunk reads that verify each chunk
// once, on first touch, and hold no file descriptor between reads; the
// `store.decompress` fault point; and the varint chunk codec. The
// contract under test: raw and varint stores read back the same codes,
// compressed stores fingerprint identically to raw ones, and every
// corruption mode fails loudly with kIOError.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "core/transform.h"
#include "data/table.h"
#include "store/chunk_codec.h"
#include "store/chunked_table.h"
#include "store/stream_transform.h"
#include "util/fault_injection.h"
#include "util/file_io.h"

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

void ExpectMomentsIdentical(const TransformedMoments& want,
                            const TransformedMoments& got) {
  EXPECT_EQ(got.num_samples, want.num_samples);
  EXPECT_EQ(got.mean, want.mean);
  ASSERT_EQ(got.cov.rows(), want.cov.rows());
  ASSERT_EQ(got.cov.cols(), want.cov.cols());
  for (size_t x = 0; x < want.cov.rows(); ++x) {
    for (size_t y = 0; y < want.cov.cols(); ++y) {
      EXPECT_EQ(got.cov(x, y), want.cov(x, y)) << x << "," << y;
    }
  }
}

/// Lowers the soft RLIMIT_NOFILE so that only `spare` descriptors are
/// free above the highest one open now, and restores it on scope exit.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(rlim_t spare) {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlim_t highest = 2;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      highest = std::max<rlim_t>(
          highest, std::stoul(entry.path().filename().string()));
    }
    rlimit lowered = saved_;
    lowered.rlim_cur = highest + 1 + spare;
    lowered_ = lowered.rlim_cur < saved_.rlim_cur &&
               ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~DescriptorLimit() {
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  bool lowered() const { return lowered_; }

 private:
  rlimit saved_ = {};
  bool lowered_ = false;
};

TEST(StoreIoTest, SpilledReadsHoldNoDescriptorPerChunk) {
  // Three times as many chunks as free descriptors: a read path that
  // kept one descriptor per chunk would run out part way through.
  constexpr rlim_t kSpare = 16;
  constexpr size_t kChunks = 3 * kSpare;
  const Table table = IoTable(5 * kChunks);
  const EncodedTable encoded = EncodedTable::Encode(table);
  auto memory = PairTransformMoments(table, {});
  ASSERT_TRUE(memory.ok());
  for (const char* codec : {"", "varint"}) {
    SCOPED_TRACE(codec[0] == '\0' ? "raw" : codec);
    const std::string dir = FreshDir(codec[0] == '\0' ? "fd_raw" : "fd_var");
    auto written = ChunkedTable::Create(table.schema(), dir, codec);
    ASSERT_TRUE(written.ok());
    AppendInChunks(table, 5, &written.value());
    ASSERT_EQ(written.value().num_chunks(), kChunks);
    {
      DescriptorLimit limit(kSpare);
      ASSERT_TRUE(limit.lowered());
      // The store as this process wrote it, then reopened.
      auto reopened = ChunkedTable::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      for (const ChunkedTable* store : {&written.value(), &reopened.value()}) {
        for (size_t c = 0; c < table.num_columns(); ++c) {
          CodeColumn codes;
          const Status read = store->ReadColumnCodes(c, &codes);
          ASSERT_TRUE(read.ok()) << read.ToString();
          EXPECT_EQ(codes.ToInt32(), encoded.column_codes(c)) << "col " << c;
        }
        for (const uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
          StreamTransformOptions stream;
          stream.column_cache_bytes = budget;
          ASSERT_EQ(TransformRunsResident(*store, stream), budget == 0);
          auto streamed = StreamTransformMoments(*store, stream);
          ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
          ExpectMomentsIdentical(memory.value(), streamed.value());
        }
      }
    }
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, FirstTouchCatchesAChunkChangedAfterItsWrite) {
  // A chunk file changed after this process wrote it, with no Open in
  // between, must fail its first column read rather than yield a wrong
  // code. The flip turns the last code of column 0 in chunk 0 (row 39:
  // storage code 10, one past row 38's 9) into another valid code:
  // 10 ^ 2 = 8 at one byte per code, and the varint delta +1 (zigzag
  // byte 0x02) into 0.
  const Table table = IoTable(80);
  const size_t k = table.num_columns();
  for (const char* codec : {"", "varint"}) {
    SCOPED_TRACE(codec[0] == '\0' ? "raw" : codec);
    const std::string dir =
        FreshDir(codec[0] == '\0' ? "touch_raw" : "touch_var");
    auto store = ChunkedTable::Create(table.schema(), dir, codec);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 40, &store.value());
    const std::string victim = dir + "/chunk-000000.bin";
    auto contents = ReadFileToString(victim);
    ASSERT_TRUE(contents.ok());
    std::string& bytes = contents.value();
    // Narrow chunks: a 32-byte header and a width byte per column, then
    // (varint only) a u64 payload size per column, then the payloads.
    size_t end_of_col0 = 32 + k + 40;
    if (codec[0] != '\0') {
      uint64_t size0 = 0;
      std::memcpy(&size0, bytes.data() + 32 + k, sizeof(size0));
      end_of_col0 = 32 + k + 8 * k + size0;
    }
    char& last = bytes[end_of_col0 - 1];
    ASSERT_EQ(last, codec[0] == '\0' ? 10 : 2);
    last = static_cast<char>(last ^ 2);
    ASSERT_TRUE(WriteFileAtomic(victim, bytes).ok());

    CodeColumn codes;
    const Status read = store.value().ReadColumnCodes(0, &codes);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.code(), StatusCode::kIOError);
    EXPECT_NE(read.message().find("fingerprint mismatch"), std::string::npos)
        << read.message();
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
  const std::string dir = FreshDir("cor");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(80), 40, &store.value());
  }
  // Flip a byte inside the first column's compressed payload (past the
  // 32-byte header, the width bytes and the 3-entry size table).
  const std::string victim = dir + "/chunk-000000.bin";
  auto contents = ReadFileToString(victim);
  ASSERT_TRUE(contents.ok());
  ASSERT_GT(contents.value().size(), 70u);
  contents.value()[62] = static_cast<char>(contents.value()[62] ^ 0x5a);
  ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());
  auto reopened = ChunkedTable::Open(dir);
  // Either the varint decoder rejects the mangled stream or the
  // reconstructed payload fails fingerprint verification — both are
  // loud kIOError, never silently different data.
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, CorruptRawChunkRejectedInMmapMode) {
  // A raw chunk with one flipped code byte fails Open's fingerprint
  // replay.
  const std::string dir = FreshDir("cor_raw");
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
  auto reopened = ChunkedTable::Open(dir);
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
