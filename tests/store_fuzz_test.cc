// Fuzz test of the chunk store's byte boundaries: manifest.json and the
// chunk files of small spilled stores, in the current format (narrow raw
// FDXCHNK3, varint FDXCHNK4) and as an older writer left them
// (tests/store_fixtures: raw FDXCHNK1, varint FDXCHNK2). The shared
// mutator (fuzz_mutator.h) corrupts one file per case. Every case must
// either fail Open, ReadColumnCodes or ReadChunkValues with kIOError, or
// read back exactly the original rows, codes and values. One case in
// four that hits a raw chunk also rewrites that chunk's manifest
// fingerprint, so the mutated bytes get past the fingerprint check to
// the decoders behind it (a manifest that ends in its own fingerprint is
// re-sealed too); such a store may read back different data, but it
// must still never crash or fail with anything but kIOError. Column
// names live only in the manifest: the oracle compares them when the
// mutated manifest still ends in a fingerprint, which Open then
// verified, and compares data only for the older manifests that carry
// none.
//
// The fixtures also pin compatibility: they read bit-identically to
// their source CSV (codes, ReadChunkValues and moments), and a manifest
// of an unknown version fails loudly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/transform.h"
#include "csv_test_util.h"
#include "data/code_column.h"
#include "data/csv.h"
#include "data/table.h"
#include "fuzz_mutator.h"
#include "store/chunked_table.h"
#include "store/stream_transform.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace fdx {
namespace {

namespace fs = std::filesystem;
using testing_csv::SameValue;

/// A store's files, by name.
using StoreFiles = std::map<std::string, std::string>;

StoreFiles ReadStore(const std::string& dir) {
  StoreFiles files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto bytes = ReadFileToString(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

/// Replaces `dir`'s contents with `files` (plain writes: a fuzz case
/// needs no durability).
void WriteStore(const std::string& dir, const StoreFiles& files) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : files) {
    std::ofstream(dir + "/" + name, std::ios::binary) << bytes;
  }
}

/// What a store reads back as.
struct StoreData {
  std::vector<std::string> names;
  size_t rows = 0;
  std::vector<std::vector<int32_t>> codes;  ///< transform codes per column
  std::vector<Table> chunks;                ///< exact values per chunk
};

Result<StoreData> ReadAll(const std::string& dir) {
  FDX_ASSIGN_OR_RETURN(ChunkedTable store, ChunkedTable::Open(dir));
  StoreData data;
  data.names = store.schema().names();
  data.rows = store.num_rows();
  for (size_t c = 0; c < store.num_columns(); ++c) {
    CodeColumn column;
    FDX_RETURN_IF_ERROR(store.ReadColumnCodes(c, &column));
    data.codes.push_back(column.ToInt32());
  }
  for (size_t i = 0; i < store.num_chunks(); ++i) {
    FDX_ASSIGN_OR_RETURN(Table chunk, store.ReadChunkValues(i));
    data.chunks.push_back(std::move(chunk));
  }
  return data;
}

bool SameData(const StoreData& a, const StoreData& b) {
  if (a.rows != b.rows || a.codes != b.codes ||
      a.chunks.size() != b.chunks.size()) {
    return false;
  }
  for (size_t i = 0; i < a.chunks.size(); ++i) {
    const Table& x = a.chunks[i];
    const Table& y = b.chunks[i];
    if (x.num_rows() != y.num_rows() || x.num_columns() != y.num_columns()) {
      return false;
    }
    for (size_t r = 0; r < x.num_rows(); ++r) {
      for (size_t c = 0; c < x.num_columns(); ++c) {
        if (!SameValue(x.cell(r, c), y.cell(r, c))) return false;
      }
    }
  }
  return true;
}

/// 300 rows: a low-cardinality column with nulls, one whose dictionary
/// outgrows one byte in its last chunk, and mixed doubles, NaN and
/// strings (storage codes apart from transform codes).
Table FuzzTable() {
  Table table{Schema({"a", "b", "c"})};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < 300; ++r) {
    std::vector<Value> row(3);
    row[0] = r % 11 == 0 ? Value::Null() : Value(static_cast<int64_t>(r % 7));
    row[1] = Value(static_cast<int64_t>(r % 280));
    switch (r % 5) {
      case 0:
        row[2] = Value(nan);
        break;
      case 1:
        row[2] = Value(-0.0);
        break;
      case 2:
        row[2] = Value(static_cast<double>(r % 9));
        break;
      default:
        row[2] = Value("s" + std::to_string(r % 3));
        break;
    }
    table.AppendRow(std::move(row));
  }
  return table;
}

std::string TempDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("fdx_store_fuzz_" + std::to_string(::getpid()) + "_" + tag))
      .string();
}

/// One store to mutate: its files and what they read back as.
struct Variant {
  std::string name;
  StoreFiles files;
  StoreData data;
};

const std::vector<Variant>& Variants() {
  static const std::vector<Variant> variants = [] {
    std::vector<Variant> out;
    const Table table = FuzzTable();
    for (const char* codec : {"none", "varint"}) {
      const std::string dir = TempDir(std::string("seed_") + codec);
      (void)RemoveDirectoryRecursive(dir);
      {
        auto store = ChunkedTable::Create(table.schema(), dir, codec);
        EXPECT_TRUE(store.ok());
        for (size_t lo = 0; lo < table.num_rows(); lo += 97) {
          Table batch{table.schema()};
          for (size_t r = lo; r < std::min(table.num_rows(), lo + 97); ++r) {
            batch.AppendRow({table.cell(r, 0), table.cell(r, 1),
                             table.cell(r, 2)});
          }
          EXPECT_TRUE(store->AppendBatch(batch).ok());
        }
      }
      out.push_back({std::string("narrow_") + codec, ReadStore(dir), {}});
      (void)RemoveDirectoryRecursive(dir);
    }
    for (const char* fixture : {"parent_raw", "parent_varint"}) {
      out.push_back({fixture,
                     ReadStore(std::string(FDX_STORE_FIXTURE_DIR) + "/" +
                               fixture),
                     {}});
    }
    for (Variant& variant : out) {
      const std::string dir = TempDir("read_" + variant.name);
      WriteStore(dir, variant.files);
      auto data = ReadAll(dir);
      EXPECT_TRUE(data.ok()) << variant.name << ": "
                             << data.status().ToString();
      if (data.ok()) variant.data = std::move(data).value();
      (void)RemoveDirectoryRecursive(dir);
    }
    return out;
  }();
  return variants;
}

const std::vector<std::string>& Tokens() {
  static const std::vector<std::string> tokens = {
      "FDXCHNK1", "FDXCHNK2", "FDXCHNK3", "FDXCHNK4",
      // width bytes and little-endian counts
      std::string(1, '\x01'), std::string(1, '\x02'), std::string(1, '\x03'),
      std::string(1, '\x04'), std::string(1, '\xff'), std::string(8, '\0'),
      std::string(7, '\xff') + '\x7f',
      // JSON punctuation and numbers that must not pass as integers
      "{", "}", "[", "]", ",", ":", "\"", "null", "-1", "1e30", "2.5", "0",
      "\"version\":2", "\"rows\":0", "\"start\":0", "\"codec\":\"varint\",",
      "[\"i\",\"3\"]", "[\"d\",\"nan\"]", "[\"s\",\"\"]",
  };
  return tokens;
}

std::string FingerprintOf(const std::string& bytes) {
  Fingerprint fp;
  fp.Update(bytes.data(), bytes.size());
  return fp.Hex();
}

/// A manifest's closing member: `,"fingerprint":"<32 hex>"}`, over every
/// byte before the comma. Older manifests end at their chunk list.
constexpr char kSeal[] = ",\"fingerprint\":\"";
constexpr size_t kSealBytes = sizeof(kSeal) - 1 + 32 + 2;

bool Sealed(const std::string& manifest) {
  return manifest.size() >= kSealBytes &&
         manifest.compare(manifest.size() - kSealBytes, sizeof(kSeal) - 1,
                          kSeal) == 0;
}

/// Recomputes a sealed manifest's fingerprint.
void Reseal(std::string* manifest) {
  if (!Sealed(*manifest)) return;
  manifest->resize(manifest->size() - kSealBytes);
  *manifest += kSeal + FingerprintOf(*manifest) + "\"}";
}

bool IsRawChunk(const std::string& bytes) {
  return bytes.compare(0, 8, "FDXCHNK1") == 0 ||
         bytes.compare(0, 8, "FDXCHNK3") == 0;
}

/// Reads `files` back and checks the contract against `want` (null: any
/// data is allowed, only failures are held to kIOError).
void CheckCase(const std::string& dir, const StoreFiles& files,
               const StoreData* want, const std::string& what) {
  WriteStore(dir, files);
  SCOPED_TRACE(what);
  const Result<StoreData> got = ReadAll(dir);
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kIOError)
        << got.status().ToString();
  } else if (want != nullptr) {
    EXPECT_TRUE(SameData(*got, *want)) << "read back different data";
    if (Sealed(files.at("manifest.json"))) {
      EXPECT_EQ(got->names, want->names) << "read back different names";
    }
  }
}

/// Cases per shard; each shard is its own ctest, a few seconds even
/// under the sanitizers.
constexpr size_t kCasesPerShard = 1000;

class StoreFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreFuzzTest, CorruptionFailsLoudlyOrReadsTheOriginal) {
  const std::vector<Variant>& variants = Variants();
  ASSERT_EQ(variants.size(), 4u);
  Rng rng(0x5707e000u + static_cast<uint64_t>(GetParam()));
  const std::string dir = TempDir("case_" + std::to_string(GetParam()));
  for (size_t i = 0; i < kCasesPerShard; ++i) {
    const Variant& variant = variants[rng.NextUint64(variants.size())];
    std::vector<std::string> names;
    std::vector<std::string> seeds;
    for (const auto& [name, bytes] : variant.files) {
      names.push_back(name);
      seeds.push_back(bytes);
    }
    const std::string& target = names[rng.NextUint64(names.size())];
    StoreFiles files = variant.files;
    files[target] =
        testing_fuzz::Mutate(files[target], seeds, Tokens(), &rng);
    const bool refingerprint = target != "manifest.json" &&
                               IsRawChunk(variant.files.at(target)) &&
                               rng.NextUint64(4) == 0;
    if (refingerprint) {
      std::string& manifest = files["manifest.json"];
      const std::string old_fp = FingerprintOf(variant.files.at(target));
      const size_t at = manifest.find(old_fp);
      ASSERT_NE(at, std::string::npos);
      manifest.replace(at, old_fp.size(), FingerprintOf(files[target]));
      Reseal(&manifest);
    }
    CheckCase(dir, files, refingerprint ? nullptr : &variant.data,
              variant.name + "/" + target + " case " + std::to_string(i) +
                  (refingerprint ? " (refingerprinted)" : ""));
    if (HasFailure()) {
      std::fprintf(stderr, "failing store kept in %s\n", dir.c_str());
      return;
    }
  }
  (void)RemoveDirectoryRecursive(dir);
}

INSTANTIATE_TEST_SUITE_P(Shards, StoreFuzzTest, ::testing::Range(0, 8));

/// The fixtures' source CSV.
Result<Table> FixtureSource() {
  return ReadCsv(std::string(FDX_STORE_FIXTURE_DIR) + "/source.csv");
}

TEST(StoreFixtureTest, ParentFormatStoresReadBitIdentically) {
  // Stores an older fdxtool wrote (int32 FDXCHNK1 chunks and varint
  // FDXCHNK2 chunks, 40 rows each) open and read back exactly their
  // source CSV: codes, values, and the moments of the transform.
  auto source = FixtureSource();
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const EncodedTable encoded = EncodedTable::Encode(*source);
  auto memory = PairTransformMoments(*source, {});
  ASSERT_TRUE(memory.ok());
  for (const char* fixture : {"parent_raw", "parent_varint"}) {
    SCOPED_TRACE(fixture);
    const std::string dir = TempDir(std::string("fixture_") + fixture);
    WriteStore(dir, ReadStore(std::string(FDX_STORE_FIXTURE_DIR) + "/" +
                              fixture));
    auto store = ChunkedTable::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(store->num_rows(), source->num_rows());
    ASSERT_EQ(store->schema().names(), source->schema().names());
    for (size_t c = 0; c < store->num_columns(); ++c) {
      CodeColumn codes;
      ASSERT_TRUE(store->ReadColumnCodes(c, &codes).ok());
      EXPECT_EQ(codes.ToInt32(), encoded.column_codes(c)) << "col " << c;
    }
    size_t row = 0;
    for (size_t i = 0; i < store->num_chunks(); ++i) {
      auto chunk = store->ReadChunkValues(i);
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      for (size_t r = 0; r < chunk->num_rows(); ++r, ++row) {
        for (size_t c = 0; c < chunk->num_columns(); ++c) {
          EXPECT_TRUE(SameValue(chunk->cell(r, c), source->cell(row, c)))
              << "row " << row << " col " << c;
        }
      }
    }
    EXPECT_EQ(row, source->num_rows());
    for (uint64_t budget : {uint64_t{0}, uint64_t{1}}) {
      StreamTransformOptions stream;
      stream.column_cache_bytes = budget;
      auto streamed = StreamTransformMoments(*store, stream);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(streamed->num_samples, memory->num_samples);
      EXPECT_EQ(streamed->mean, memory->mean);
      for (size_t x = 0; x < memory->cov.rows(); ++x) {
        for (size_t y = 0; y < memory->cov.cols(); ++y) {
          EXPECT_EQ(streamed->cov(x, y), memory->cov(x, y));
        }
      }
    }
    (void)RemoveDirectoryRecursive(dir);
  }
}

TEST(StoreFixtureTest, UnknownManifestVersionFailsLoudly) {
  for (const char* fixture : {"parent_raw", "parent_varint"}) {
    StoreFiles files =
        ReadStore(std::string(FDX_STORE_FIXTURE_DIR) + "/" + fixture);
    std::string& manifest = files["manifest.json"];
    const size_t at = manifest.find("\"version\":1");
    ASSERT_NE(at, std::string::npos);
    manifest.replace(at, 11, "\"version\":2");
    const std::string dir = TempDir(std::string("version_") + fixture);
    WriteStore(dir, files);
    auto store = ChunkedTable::Open(dir);
    ASSERT_FALSE(store.ok()) << fixture;
    EXPECT_EQ(store.status().code(), StatusCode::kIOError);
    EXPECT_NE(store.status().message().find("unsupported manifest version 2"),
              std::string::npos)
        << store.status().message();
    (void)RemoveDirectoryRecursive(dir);
  }
}

}  // namespace
}  // namespace fdx
