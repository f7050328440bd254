// Differential fuzz test of the parallel CSV reader against the line
// parser it replaced (csv_oracle.h). The shared seeded mutator
// (fuzz_mutator.h: bit flips, truncation, splicing, and here a
// dictionary of CSV-significant tokens) turns
// a few seed files into cases; every case runs through every reader
// entry point at FDX_THREADS 1, 2, 3 and 8 with the block size forced
// small, so block and window edges land everywhere, including between a
// CR and its LF; file cases also run with the window capped at one or
// two blocks. The reader must agree with the oracle on the schema,
// row count, every cell, every code, cardinality and null count, and
// on failure on the status code and message.
//
// Minimized failures are kept under tests/corpus/ and replayed on every
// run (CorpusReplay below).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "csv_oracle.h"
#include "csv_test_util.h"
#include "fuzz_mutator.h"
#include "data/csv.h"
#include "data/csv_reader.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace fdx {
namespace {

namespace fs = std::filesystem;
using testing_csv::Escaped;
using testing_csv::ExpectSameCodes;
using testing_csv::ExpectSameTable;
using testing_csv::ScopedBlockBytes;
using testing_csv::ScopedThreads;

const std::vector<std::string>& Seeds() {
  static const std::vector<std::string> seeds = {
      "a,b,c\n1,x,2.5\n,NULL,\"q,z\"\n3,y,4.5\n",
      "\n\r\nid,name,score\r\n1,\"Smith, J\",3.0\r\n2,NA,3\r\n"
      "3,\"say \"\"hi\"\"\",?\r\n4, padded ,  7  \r\n",
      "k,v\nnan,1\n-nan,2\ninf,3\n-0,4\n0.0,5\n1e400,6\n+5,7\n3,8\n3.0,9\n",
      "x\n1\n\n2\nnull\n\"\"\n\" 3 \"\n",
      "p;q\n1;2\n\"a;b\";c\n",
  };
  return seeds;
}

const std::vector<std::string>& Tokens() {
  static const std::vector<std::string> tokens = {
      ",",   "\"",   "\"\"", "\r\n",  "\n",   "\n\n", "\r",    "NULL",
      "NA",  "?",    "nan",  "-nan",  "inf",  "-0",   "3.0",   "1e400",
      "+5",  " 7 ",  "  ",   "3",     "\"3\"", ";",   "\t",    "x,y",
      "\n" + std::string(70, '9') + "," + std::string(90, 'q') + "\n",
  };
  return tokens;
}

std::string Mutate(const std::string& text, Rng* rng) {
  return testing_fuzz::Mutate(text, Seeds(), Tokens(), rng);
}

/// The chunks a chunked read delivers, then its final status.
struct ChunkedRead {
  std::vector<Table> chunks;
  Status status;
};

ChunkedRead OracleChunks(const std::string& text, const CsvOptions& options,
                         size_t chunk_rows) {
  ChunkedRead out;
  std::istringstream in(text);
  out.status = oracle::ParseCsvStream(
      in, options, chunk_rows,
      [&](Table&& chunk) {
        out.chunks.push_back(std::move(chunk));
        return Status::OK();
      },
      "CSV buffer");
  return out;
}

ChunkedRead ReaderChunks(const std::string& text, const CsvOptions& options,
                         size_t chunk_rows) {
  ChunkedRead out;
  out.status = ReadCsvChunkedFromString(text, options, chunk_rows,
                                        [&](Table&& chunk) {
                                          out.chunks.push_back(
                                              std::move(chunk));
                                          return Status::OK();
                                        });
  return out;
}

/// ReadCsv through a reader whose window is capped at `max_window`
/// bytes, decoding its code chunks of `chunk_rows` rows.
Result<Table> ReadBounded(const std::string& path, const CsvOptions& options,
                          size_t max_window, size_t chunk_rows) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader,
                       CsvReader::Open(path, options, max_window));
  const size_t k = reader.schema().size();
  std::vector<ColumnDictionary> dicts(k);
  std::vector<std::vector<Value>> columns(k);
  FDX_RETURN_IF_ERROR(reader.ReadChunks(
      &dicts, chunk_rows,
      [&](std::vector<std::vector<int32_t>>&& codes, size_t) {
        for (size_t c = 0; c < k; ++c) {
          for (int32_t code : codes[c]) {
            columns[c].push_back(code < 0 ? Value::Null()
                                          : dicts[c].value(code));
          }
        }
        return Status::OK();
      }));
  return Table(reader.schema(), std::move(columns));
}

void ExpectSameStatus(const Status& want, const Status& got) {
  EXPECT_EQ(static_cast<int>(want.code()), static_cast<int>(got.code()));
  EXPECT_EQ(want.message(), got.message());
}

/// One case through every entry point at one thread count and block
/// size. `path` (optional) holds `text` on disk for the file readers.
void CheckCase(const std::string& text, const CsvOptions& options,
               size_t threads, size_t block_bytes, const std::string& path) {
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               " block=" + std::to_string(block_bytes) +
               " header=" + std::to_string(options.has_header) +
               " delim=" + Escaped(std::string(1, options.delimiter)) +
               " text=\"" + Escaped(text) + "\"");
  ScopedThreads scoped_threads(threads);
  ScopedBlockBytes scoped_blocks(block_bytes);
  const Result<Table> want = oracle::ReadCsvFromString(text, options);
  const Result<Table> got = ReadCsvFromString(text, options);
  const Result<EncodedTable> encoded = ReadCsvEncodedFromString(text, options);
  if (!want.ok()) {
    ASSERT_FALSE(got.ok());
    ExpectSameStatus(want.status(), got.status());
    ASSERT_FALSE(encoded.ok());
    ExpectSameStatus(want.status(), encoded.status());
  } else {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameTable(*want, *got);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    ExpectSameCodes(EncodedTable::Encode(*want), *encoded);
  }

  const size_t chunk_rows = 1 + block_bytes % 3;
  const ChunkedRead want_chunks = OracleChunks(text, options, chunk_rows);
  const ChunkedRead got_chunks = ReaderChunks(text, options, chunk_rows);
  ExpectSameStatus(want_chunks.status, got_chunks.status);
  ASSERT_EQ(want_chunks.chunks.size(), got_chunks.chunks.size());
  for (size_t i = 0; i < want_chunks.chunks.size(); ++i) {
    ExpectSameTable(want_chunks.chunks[i], got_chunks.chunks[i]);
  }

  if (!path.empty()) {
    const Result<EncodedTable> from_file = ReadCsvEncoded(path, options);
    if (!want.ok()) {
      ASSERT_FALSE(from_file.ok());
      ExpectSameStatus(want.status(), from_file.status());
    } else {
      ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
      ExpectSameCodes(*encoded, *from_file);
    }
    // A window capped at one or two blocks reads the same table.
    const Result<Table> bounded = ReadBounded(
        path, options, block_bytes * (1 + threads % 2), chunk_rows);
    if (!want.ok()) {
      ASSERT_FALSE(bounded.ok());
      ExpectSameStatus(want.status(), bounded.status());
    } else {
      ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
      ExpectSameTable(*want, *bounded);
    }
  }
}

constexpr size_t kThreadCounts[] = {1, 2, 3, 8};
constexpr size_t kBlockSizes[] = {1, 2, 3, 5, 8, 13, 64, 4096};

/// Cases per shard; each shard is its own ctest, a few seconds even
/// under the sanitizers.
constexpr size_t kCasesPerShard = 300;

class CsvFuzzTest : public ::testing::TestWithParam<int> {};

/// A temporary file path, removed when the scope ends.
struct TempFile {
  std::string path;
  ~TempFile() { std::remove(path.c_str()); }
};

TEST_P(CsvFuzzTest, ReaderMatchesLineParser) {
  Rng rng(0x5eed0000u + static_cast<uint64_t>(GetParam()));
  const TempFile file{(fs::temp_directory_path() /
                       ("fdx_csv_fuzz_" + std::to_string(::getpid()) + "_" +
                        std::to_string(GetParam()) + ".csv"))
                          .string()};
  const std::string& path = file.path;
  for (size_t i = 0; i < kCasesPerShard; ++i) {
    const std::string text =
        Mutate(Seeds()[rng.NextUint64(Seeds().size())], &rng);
    CsvOptions options;
    options.has_header = rng.NextUint64(4) != 0;
    const char delimiters[] = {',', ',', ',', ';', '\t', ' '};
    options.delimiter = delimiters[rng.NextUint64(sizeof(delimiters))];
    const bool with_file = i % 4 == 0;
    if (with_file) {
      ASSERT_TRUE(WriteFileAtomic(path, text).ok());
    }
    for (size_t threads : kThreadCounts) {
      const size_t block =
          kBlockSizes[rng.NextUint64(std::size(kBlockSizes))];
      CheckCase(text, options, threads, block, with_file ? path : "");
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CsvFuzzTest, ::testing::Range(0, 8));

TEST(CsvFuzzCorpus, CorpusReplay) {
  size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(FDX_CSV_CORPUS_DIR)) {
    auto text = ReadFileToString(entry.path().string());
    ASSERT_TRUE(text.ok());
    SCOPED_TRACE(entry.path().filename().string());
    for (bool header : {true, false}) {
      CsvOptions options;
      options.has_header = header;
      for (size_t threads : kThreadCounts) {
        for (size_t block : {size_t{1}, size_t{2}, size_t{7}}) {
          CheckCase(*text, options, threads, block, entry.path().string());
          if (HasFatalFailure()) return;
        }
      }
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace fdx
