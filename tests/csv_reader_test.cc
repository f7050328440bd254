// The parallel CSV reader: the NaN and delimiter rules, its errors, and
// byte-identity of both sinks (the chunk store and the in-memory
// discoverer) against the line parser it replaced (csv_oracle.h).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "bn/networks.h"
#include "core/fdx.h"
#include "csv_oracle.h"
#include "csv_test_util.h"
#include "data/csv.h"
#include "data/csv_reader.h"
#include "store/chunked_table.h"
#include "synth/generator.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace fdx {
namespace {

namespace fs = std::filesystem;
using testing_csv::ExpectSameCodes;
using testing_csv::ExpectSameTable;
using testing_csv::ScopedBlockBytes;
using testing_csv::ScopedThreads;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          ("fdx_csv_reader_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// --- NaN cells ---------------------------------------------------------

// Every NaN cell shares one transform code, distinct from every number.
// The two columns broke std::map<double>'s ordering: NaN took 1's code in
// the first and collapsed the whole column to one code in the second.
TEST(CsvReaderTest, NanCellsGetOneCodeDistinctFromNumbers) {
  const std::string text = "a,b\n1,nan\nnan,1\n2,nan\n-nan,2\n1,\n";
  for (size_t threads : {1, 4}) {
    ScopedThreads scoped(threads);
    ScopedBlockBytes blocks(5);
    auto encoded = ReadCsvEncodedFromString(text);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    EXPECT_EQ(encoded->column_codes(0), (std::vector<int32_t>{0, 1, 2, 1, 0}));
    EXPECT_EQ(encoded->Cardinality(0), 3u);
    EXPECT_EQ(encoded->column_codes(1),
              (std::vector<int32_t>{0, 1, 0, 2, EncodedTable::kNullCode}));
    EXPECT_EQ(encoded->Cardinality(1), 3u);
    EXPECT_EQ(encoded->NullCount(1), 1u);
  }
  // Decoded cells keep their exact bits: "-nan" stays negative.
  auto table = ReadCsvFromString(text);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->cell(3, 0).type(), ValueType::kDouble);
  EXPECT_TRUE(std::isnan(table->cell(3, 0).AsDouble()));
  EXPECT_TRUE(std::signbit(table->cell(3, 0).AsDouble()));
  EXPECT_FALSE(std::signbit(table->cell(1, 0).AsDouble()));
}

TEST(CsvReaderTest, NumericsMergeOnTheirDoubleValue) {
  auto encoded =
      ReadCsvEncodedFromString("a\n3\n3.0\n\"3\"\n-0\n0.0\n-0.0\n x \nx\n");
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->column_codes(0),
            (std::vector<int32_t>{0, 0, 0, 1, 1, 1, 2, 2}));
  EXPECT_EQ(encoded->Cardinality(0), 3u);
}

// --- typing and delimiters ----------------------------------------------

TEST(CsvReaderTest, TypesTokensExactlyAsValueParse) {
  auto table = ReadCsvFromString(
      "a\n1e400\n+5\n 7 \n-0\n9223372036854775807\n9223372036854775808\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->cell(0, 0).type(), ValueType::kString);
  EXPECT_EQ(table->cell(1, 0).type(), ValueType::kString);
  EXPECT_EQ(table->cell(2, 0).AsInt(), 7);
  EXPECT_EQ(table->cell(3, 0).AsInt(), 0);
  EXPECT_EQ(table->cell(4, 0).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(table->cell(5, 0).type(), ValueType::kDouble);
}

TEST(CsvReaderTest, RejectsDelimitersThatCannotSplitARecord) {
  for (char good : {',', ';', '\t', '|'}) {
    EXPECT_TRUE(CheckCsvDelimiter(good).ok()) << good;
  }
  for (char bad : {'"', '\r', '\n'}) {
    EXPECT_EQ(CheckCsvDelimiter(bad).code(), StatusCode::kInvalidArgument);
    CsvOptions options;
    options.delimiter = bad;
    const auto table = ReadCsvFromString("a\n1\n", options);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(ReadCsvEncodedFromString("a\n1\n", options).ok());
  }
}

TEST(CsvReaderTest, ReadsTabSeparatedInput) {
  CsvOptions options;
  options.delimiter = '\t';
  auto table = ReadCsvFromString("a\tb\n1\tx y\n", options);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_columns(), 2u);
  EXPECT_EQ(table->cell(0, 1).AsString(), "x y");
}

// --- errors ------------------------------------------------------------

TEST(CsvReaderTest, FirstBadLineInFileOrderWinsAtEveryBlockSize) {
  std::string text = "\n\na,b\n";
  for (int r = 0; r < 40; ++r) text += std::to_string(r) + ",x\n";
  text += "broken\n1,2,3\n";  // lines 44 and 45
  for (size_t threads : {1, 3, 8}) {
    ScopedThreads scoped(threads);
    for (size_t block : {1, 4, 9, 1000}) {
      ScopedBlockBytes blocks(block);
      auto encoded = ReadCsvEncodedFromString(text);
      ASSERT_FALSE(encoded.ok());
      EXPECT_EQ(encoded.status().code(), StatusCode::kIOError);
      EXPECT_EQ(encoded.status().message(),
                "line 44: CSV row with 1 fields; expected 2");
    }
  }
}

TEST(CsvReaderTest, MissingFileAndFaultPointFailLikeReadCsv) {
  auto missing = ReadCsvEncoded("/nonexistent/dir/file.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(),
            "cannot open /nonexistent/dir/file.csv");
  ASSERT_TRUE(ArmFaults("csv.read").ok());
  auto faulted = ReadCsvEncoded("/nonexistent/dir/file.csv");
  DisarmFaults();
  ASSERT_FALSE(faulted.ok());
  EXPECT_NE(faulted.status().message().find("injected fault: csv.read"),
            std::string::npos);
}

TEST(CsvReaderTest, ReadErrorNamesThePath) {
  const std::string dir = TempPath("dir");
  fs::create_directories(dir);
  auto encoded = ReadCsvEncoded(dir);
  fs::remove_all(dir);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().ToString(), "IOError: error while reading " + dir);
}

// --- sink 1: the chunk store ---------------------------------------------

/// Every file of a store directory, by name.
std::map<std::string, std::string> StoreFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto contents = ReadFileToString(entry.path().string());
    EXPECT_TRUE(contents.ok());
    if (contents.ok()) files[entry.path().filename().string()] = *contents;
  }
  return files;
}

std::string MixedCsv() {
  std::string text = "id,kind,score,mixed\n";
  const char* mixed[] = {"3", "3.0", "\"3\"", "NULL", "x", "-0", "0.0", ""};
  const char* kinds[] = {"alpha", "\"be,ta\"", "NA", "gamma"};
  Rng rng(5);
  for (int r = 0; r < 150; ++r) {
    text += std::to_string(r % 37) + "," + kinds[rng.NextUint64(4)] + "," +
            (rng.NextUint64(5) == 0 ? "?" : std::to_string(r % 11) + ".5") +
            "," + mixed[rng.NextUint64(8)] + (r % 3 == 0 ? "\r\n" : "\n");
  }
  return text;
}

struct StoreCase {
  size_t chunk_rows;
  std::string codec;
  size_t threads;
};

void PrintTo(const StoreCase& c, std::ostream* os) {
  *os << "chunk_rows=" << c.chunk_rows << " codec=" << c.codec
      << " threads=" << c.threads;
}

class StoreIdentityTest : public ::testing::TestWithParam<StoreCase> {};

TEST_P(StoreIdentityTest, CodeBatchIngestIsByteIdenticalToTableAppends) {
  const StoreCase& param = GetParam();
  const std::string text = MixedCsv();
  ScopedThreads scoped(param.threads);
  ScopedBlockBytes blocks(256);
  const std::string want_dir = TempPath("want");
  const std::string got_dir = TempPath("got");
  fs::remove_all(want_dir);
  fs::remove_all(got_dir);

  // Oracle: the line parser's chunks through AppendBatch(Table).
  ChunkedTable want;
  bool created = false;
  std::istringstream in(text);
  ASSERT_TRUE(oracle::ParseCsvStream(
                  in, {}, param.chunk_rows,
                  [&](Table&& chunk) -> Status {
                    if (!created) {
                      FDX_ASSIGN_OR_RETURN(
                          want, ChunkedTable::Create(chunk.schema(), want_dir,
                                                     param.codec));
                      created = true;
                    }
                    if (chunk.num_rows() == 0) return Status::OK();
                    return want.AppendBatch(chunk);
                  },
                  "CSV buffer")
                  .ok());

  // Reader: code batches straight into the store.
  auto reader = CsvReader::FromBuffer(text, {});
  ASSERT_TRUE(reader.ok());
  auto got = ChunkedTable::Create(reader->schema(), got_dir, param.codec);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->AppendCsv(&*reader, param.chunk_rows).ok());

  EXPECT_GT(want.num_chunks(), 0u);
  EXPECT_EQ(StoreFiles(want_dir), StoreFiles(got_dir));
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(want.Cardinality(c), got->Cardinality(c));
    EXPECT_EQ(want.NullCount(c), got->NullCount(c));
    EXPECT_EQ(want.DictionarySize(c), got->DictionarySize(c));
  }
  fs::remove_all(want_dir);
  fs::remove_all(got_dir);
}

std::vector<StoreCase> StoreCases() {
  std::vector<StoreCase> cases;
  for (size_t chunk_rows : {size_t{1}, size_t{97}, size_t{65536}}) {
    for (const char* codec : {"none", "varint"}) {
      for (size_t threads : {1, 4}) {
        cases.push_back({chunk_rows, codec, threads});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ChunkCodecThreads, StoreIdentityTest,
                         ::testing::ValuesIn(StoreCases()));

TEST(CsvReaderTest, StoreKeepsNanBitsAndTransformsThemToOneCode) {
  const std::string text = "a,b\n1,nan\nnan,1\n2,-nan\nnan,2\n1,1\n";
  for (size_t chunk_rows : {size_t{2}, size_t{100}}) {
    auto reader = CsvReader::FromBuffer(text, {});
    ASSERT_TRUE(reader.ok());
    auto store = ChunkedTable::Create(reader->schema(), "");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendCsv(&*reader, chunk_rows).ok());
    CodeColumn codes;
    ASSERT_TRUE(store->ReadColumnCodes(0, &codes).ok());
    EXPECT_EQ(codes.ToInt32(), (std::vector<int32_t>{0, 1, 2, 1, 0}));
    ASSERT_TRUE(store->ReadColumnCodes(1, &codes).ok());
    EXPECT_EQ(codes.ToInt32(), (std::vector<int32_t>{0, 1, 0, 2, 1}));
    EXPECT_EQ(store->Cardinality(1), 3u);
    EXPECT_EQ(store->DictionarySize(1), 4u);  // nan and -nan kept apart
  }
}

// --- sink 2: the in-memory discoverer -------------------------------------

void ExpectSameMatrix(const Matrix& want, const Matrix& got) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      const double x = want(i, j);
      const double y = got(i, j);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(x)), 0) << i << "," << j;
    }
  }
}

/// Writes `table` with WriteCsv, then checks that Discover on the
/// reader's EncodedTable equals Discover on the oracle's Table bit for
/// bit.
void ExpectSameDiscovery(const Table& table, const std::string& name) {
  SCOPED_TRACE(name);
  const std::string path = TempPath(name + ".csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  std::ifstream in(path, std::ios::binary);
  Table oracle_table;
  ASSERT_TRUE(oracle::ParseCsvStream(
                  in, {}, 0,
                  [&](Table&& t) {
                    oracle_table = std::move(t);
                    return Status::OK();
                  },
                  path)
                  .ok());
  auto encoded = ReadCsvEncoded(path);
  std::remove(path.c_str());
  ASSERT_TRUE(encoded.ok());
  ExpectSameCodes(EncodedTable::Encode(oracle_table), *encoded);

  FdxDiscoverer discoverer;
  auto want = discoverer.Discover(oracle_table);
  auto got = discoverer.Discover(*encoded);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectSameMatrix(want->theta, got->theta);
  ExpectSameMatrix(want->autoregression, got->autoregression);
  EXPECT_EQ(FdSetToString(want->fds, oracle_table.schema()),
            FdSetToString(got->fds, encoded->schema()));
}

TEST(CsvReaderTest, DiscoverOnReaderCodesMatchesDiscoverOnOracleTable) {
  ScopedBlockBytes blocks(4096);
  for (uint64_t seed : {3, 8}) {
    SyntheticConfig config;
    config.num_tuples = 1500;
    config.num_attributes = 9;
    config.seed = seed;
    auto data = GenerateSynthetic(config);
    ASSERT_TRUE(data.ok());
    ExpectSameDiscovery(data->noisy, "synthetic" + std::to_string(seed));
  }
  Rng rng(21);
  for (const BenchmarkNetwork& network : MakeAllBenchmarkNetworks()) {
    auto sample = network.net.Sample(1000, &rng);
    ASSERT_TRUE(sample.ok());
    ExpectSameDiscovery(*sample, network.name);
  }
}

}  // namespace
}  // namespace fdx
