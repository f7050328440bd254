#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "csv_test_util.h"
#include "data/csv.h"

namespace fdx {
namespace {

TEST(CsvTest, ParsesHeaderAndTypes) {
  auto table = ParseCsv("a,b,c\n1,x,2.5\n2,y,3.5\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().name(0), "a");
  EXPECT_EQ(table->cell(0, 0).type(), ValueType::kInt);
  EXPECT_EQ(table->cell(0, 1).type(), ValueType::kString);
  EXPECT_EQ(table->cell(0, 2).type(), ValueType::kDouble);
}

TEST(CsvTest, EmptyAndNullTokensBecomeNull) {
  auto table = ParseCsv("a,b\n,NULL\nNA,?\n1,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->cell(0, 0).is_null());
  EXPECT_TRUE(table->cell(0, 1).is_null());
  EXPECT_TRUE(table->cell(1, 0).is_null());
  EXPECT_TRUE(table->cell(1, 1).is_null());
  EXPECT_FALSE(table->cell(2, 0).is_null());
}

TEST(CsvTest, QuotedFields) {
  auto table = ParseCsv("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->cell(0, 0).AsString(), "x,y");
  EXPECT_EQ(table->cell(0, 1).AsString(), "say \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->cell(0, 1).AsInt(), 2);
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions options;
  options.has_header = false;
  auto table = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().name(0), "col0");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->cell(0, 1).AsInt(), 2);
}

TEST(CsvTest, RaggedRowFails) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, RaggedRowErrorNamesLine) {
  auto table = ParseCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos)
      << table.status().message();
}

TEST(CsvTest, DuplicateHeaderRejected) {
  auto table = ParseCsv("a,b,a\n1,2,3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("'a'"), std::string::npos);
}

TEST(CsvTest, EmptyHeaderRejected) {
  auto table = ParseCsv("a,,c\n1,2,3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 1"), std::string::npos);
}

TEST(CsvTest, HeaderlessInputSkipsHeaderValidation) {
  CsvOptions options;
  options.has_header = false;
  EXPECT_TRUE(ParseCsv("1,2\n3,4\n", options).ok());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path/file.csv").ok());
}

TEST(CsvTest, ReadCsvFromStringMatchesReadCsv) {
  // ReadCsv is implemented as "slurp, then ReadCsvFromString"; pin the
  // two paths to identical results so they can never diverge.
  const std::string text = "a,b,c\n1,x,2.5\n,NULL,\"q,z\"\n3,y,4.5\n";
  auto from_string = ReadCsvFromString(text);
  ASSERT_TRUE(from_string.ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "fdx_csv_string_test.csv")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto from_file = ReadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok());

  ASSERT_EQ(from_string->num_rows(), from_file->num_rows());
  ASSERT_EQ(from_string->num_columns(), from_file->num_columns());
  for (size_t r = 0; r < from_string->num_rows(); ++r) {
    for (size_t c = 0; c < from_string->num_columns(); ++c) {
      EXPECT_EQ(from_string->cell(r, c).ToString(),
                from_file->cell(r, c).ToString())
          << "cell " << r << "," << c;
    }
  }
}

TEST(CsvTest, ReadCsvFromStringKeepsLineNumbersInErrors) {
  auto ragged = ReadCsvFromString("a,b\n1,2\n3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("line 3"), std::string::npos)
      << ragged.status().ToString();
}

TEST(CsvTest, ReadCsvFromStringHandlesMissingTrailingNewline) {
  auto table = ReadCsvFromString("a,b\n1,2\n3,4");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->cell(1, 1).AsInt(), 4);
}

TEST(CsvTest, ReadCsvFromStringEmptyInputYieldsEmptyTable) {
  auto table = ReadCsvFromString("");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->num_columns(), 0u);
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t{Schema({"name", "count", "note"})};
  t.AppendRow({Value(std::string("alpha")), Value(int64_t{1}),
               Value(std::string("a,b"))});
  t.AppendRow({Value(std::string("beta")), Value(int64_t{2}), Value::Null()});
  const std::string path =
      (std::filesystem::temp_directory_path() / "fdx_csv_test.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->cell(0, 0).AsString(), "alpha");
  EXPECT_EQ(back->cell(0, 2).AsString(), "a,b");  // quoting survived
  EXPECT_EQ(back->cell(1, 1).AsInt(), 2);
  EXPECT_TRUE(back->cell(1, 2).is_null());
  std::remove(path.c_str());
}

// --- chunked streaming reader ------------------------------------------

/// Concatenates the chunks a chunked read produces back into one table.
Result<Table> ReassembleChunks(const std::string& text,
                               const CsvOptions& options, size_t chunk_rows,
                               size_t* num_chunks = nullptr) {
  Table out;
  bool first = true;
  size_t count = 0;
  FDX_RETURN_IF_ERROR(ReadCsvChunkedFromString(
      text, options, chunk_rows, [&](Table&& chunk) {
        ++count;
        if (first) {
          out = Table{chunk.schema()};
          first = false;
        }
        std::vector<Value> row(chunk.num_columns());
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          for (size_t c = 0; c < chunk.num_columns(); ++c) {
            row[c] = chunk.cell(r, c);
          }
          out.AppendRow(row);
        }
        return Status::OK();
      }));
  if (num_chunks != nullptr) *num_chunks = count;
  return out;
}

TEST(CsvChunkedTest, ChunksReassembleToTheWholeFileRead) {
  std::string text = "a,b,c\n";
  for (int r = 0; r < 53; ++r) {
    text += std::to_string(r) + "," + (r % 7 == 0 ? "NULL" : "x" +
            std::to_string(r % 3)) + "," + std::to_string(r * 0.5) + "\n";
  }
  auto whole = ReadCsvFromString(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{53}, size_t{1000}}) {
    size_t num_chunks = 0;
    auto chunked = ReassembleChunks(text, {}, chunk_rows, &num_chunks);
    ASSERT_TRUE(chunked.ok()) << chunk_rows;
    testing_csv::ExpectSameTable(whole.value(), chunked.value());
    EXPECT_EQ(num_chunks, (53 + chunk_rows - 1) / chunk_rows);
  }
}

TEST(CsvChunkedTest, MidFileErrorReportsTheSameLineOnBothPaths) {
  // Row 4 (line 5, counting the header) is ragged. The chunked reader
  // must cite the same 1-based physical line as the whole-file reader,
  // no matter where the chunk boundaries fall.
  const std::string text = "a,b\n1,2\n3,4\n5,6\nbroken\n7,8\n";
  auto whole = ReadCsvFromString(text);
  ASSERT_FALSE(whole.ok());
  ASSERT_NE(whole.status().message().find("line 5"), std::string::npos)
      << whole.status().ToString();
  for (size_t chunk_rows : {size_t{1}, size_t{2}, size_t{100}}) {
    auto chunked = ReassembleChunks(text, {}, chunk_rows);
    ASSERT_FALSE(chunked.ok()) << chunk_rows;
    EXPECT_EQ(chunked.status().code(), whole.status().code());
    EXPECT_EQ(chunked.status().message(), whole.status().message());
  }
}

TEST(CsvChunkedTest, HeaderlessChunksCarrySynthesizedSchema) {
  const std::string text = "1,2\n3,4\n5,6\n";
  CsvOptions options;
  options.has_header = false;
  size_t num_chunks = 0;
  auto chunked = ReassembleChunks(text, options, 2, &num_chunks);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(num_chunks, 2u);
  EXPECT_EQ(chunked->schema().name(0), "col0");
  EXPECT_EQ(chunked->schema().name(1), "col1");
  EXPECT_EQ(chunked->num_rows(), 3u);
}

TEST(CsvChunkedTest, RowLessInputStillDeliversOneChunkWithSchema) {
  size_t num_chunks = 0;
  auto chunked = ReassembleChunks("a,b\n", {}, 4, &num_chunks);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(num_chunks, 1u);
  EXPECT_EQ(chunked->num_rows(), 0u);
  EXPECT_EQ(chunked->schema().name(1), "b");
}

TEST(CsvChunkedTest, SinkErrorAbortsTheRead) {
  const std::string text = "a\n1\n2\n3\n4\n";
  size_t calls = 0;
  const Status status = ReadCsvChunkedFromString(
      text, {}, 1, [&](Table&&) {
        ++calls;
        return calls == 2 ? Status::Internal("sink says stop")
                          : Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "sink says stop");
  EXPECT_EQ(calls, 2u);
}

TEST(CsvChunkedTest, FileAndStringChunkingAgree) {
  std::string text = "a,b\n";
  for (int r = 0; r < 20; ++r) {
    text += std::to_string(r) + "," + std::to_string(r % 3) + "\n";
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "fdx_csv_chunk_test.csv")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  size_t rows_string = 0;
  size_t rows_file = 0;
  ASSERT_TRUE(ReadCsvChunkedFromString(text, {}, 6, [&](Table&& chunk) {
                rows_string += chunk.num_rows();
                return Status::OK();
              }).ok());
  ASSERT_TRUE(ReadCsvChunked(path, {}, 6, [&](Table&& chunk) {
                rows_file += chunk.num_rows();
                return Status::OK();
              }).ok());
  EXPECT_EQ(rows_string, 20u);
  EXPECT_EQ(rows_file, 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdx
