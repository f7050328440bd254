#include "data/csv.h"

#include <fstream>

#include "data/csv_reader.h"
#include "data/dictionary.h"
#include "util/thread_pool.h"

namespace fdx {

namespace {

/// Drains `reader` into Table chunks of at most `chunk_rows` rows (0 means
/// one chunk). Each cell's Value is its dictionary entry, so the decoded
/// table is exactly what the reader typed. A row-less input still yields
/// one empty chunk carrying the schema.
Status DecodeChunks(CsvReader* reader, size_t chunk_rows,
                    const CsvChunkSink& sink) {
  const Schema& schema = reader->schema();
  const size_t k = schema.size();
  std::vector<ColumnDictionary> dicts(k);
  bool emitted = false;
  FDX_RETURN_IF_ERROR(reader->ReadChunks(
      &dicts, chunk_rows,
      [&](std::vector<std::vector<int32_t>>&& codes, size_t rows) {
        std::vector<std::vector<Value>> columns(k);
        for (size_t c = 0; c < k; ++c) {
          columns[c].reserve(rows);
          for (int32_t code : codes[c]) {
            columns[c].push_back(code < 0 ? Value::Null()
                                          : dicts[c].value(code));
          }
        }
        emitted = true;
        return sink(Table(schema, std::move(columns)));
      }));
  if (!emitted) return sink(Table(schema));
  return Status::OK();
}

Result<Table> DecodeAll(CsvReader* reader) {
  Table out;
  FDX_RETURN_IF_ERROR(DecodeChunks(reader, /*chunk_rows=*/0,
                                   [&out](Table&& table) {
                                     out = std::move(table);
                                     return Status::OK();
                                   }));
  return out;
}

/// Drains `reader` into transform codes (see data/dictionary.h).
Result<EncodedTable> EncodeAll(CsvReader* reader) {
  const size_t k = reader->schema().size();
  std::vector<ColumnDictionary> dicts(k);
  std::vector<std::vector<int32_t>> codes(k);
  size_t num_rows = 0;
  FDX_RETURN_IF_ERROR(reader->ReadChunks(
      &dicts, /*chunk_rows=*/0,
      [&](std::vector<std::vector<int32_t>>&& chunk, size_t rows) {
        codes = std::move(chunk);
        num_rows = rows;
        return Status::OK();
      }));
  // Storage codes become transform codes in place.
  std::vector<size_t> cardinalities(k);
  std::vector<size_t> null_counts(k, 0);
  ParallelFor(0, k, 0, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      for (int32_t& code : codes[c]) {
        if (code < 0) {
          ++null_counts[c];
        } else {
          code = dicts[c].transform_code(code);
        }
      }
      cardinalities[c] = dicts[c].cardinality();
    }
  });
  return EncodedTable::FromColumns(reader->schema(), num_rows,
                                   std::move(codes), std::move(cardinalities),
                                   std::move(null_counts));
}

}  // namespace

Status CheckCsvDelimiter(char delimiter) {
  if (delimiter == '"' || delimiter == '\r' || delimiter == '\n') {
    return Status::InvalidArgument(
        "CSV delimiter must be one byte other than '\"', CR and LF");
  }
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path, const CsvOptions& options) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader, CsvReader::Open(path, options));
  return DecodeAll(&reader);
}

Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader,
                       CsvReader::FromBuffer(text, options));
  return DecodeAll(&reader);
}

Status ReadCsvChunked(const std::string& path, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader, CsvReader::Open(path, options));
  return DecodeChunks(&reader, chunk_rows, sink);
}

Status ReadCsvChunkedFromString(const std::string& text,
                                const CsvOptions& options, size_t chunk_rows,
                                const CsvChunkSink& sink) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader,
                       CsvReader::FromBuffer(text, options));
  return DecodeChunks(&reader, chunk_rows, sink);
}

Result<EncodedTable> ReadCsvEncoded(const std::string& path,
                                    const CsvOptions& options) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader, CsvReader::Open(path, options));
  return EncodeAll(&reader);
}

Result<EncodedTable> ReadCsvEncodedFromString(const std::string& text,
                                              const CsvOptions& options) {
  FDX_ASSIGN_OR_RETURN(CsvReader reader,
                       CsvReader::FromBuffer(text, options));
  return EncodeAll(&reader);
}

Result<Table> ParseCsv(const std::string& text, const CsvOptions& options) {
  return ReadCsvFromString(text, options);
}

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const auto quote = [&](const std::string& s) {
    if (s.find(options.delimiter) == std::string::npos &&
        s.find('"') == std::string::npos) {
      return s;
    }
    std::string quoted = "\"";
    for (char ch : s) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << options.delimiter;
    out << quote(table.schema().name(c));
  }
  out << '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << options.delimiter;
      out << quote(table.cell(r, c).ToString());
    }
    out << '\n';
  }
  return Status::OK();
}

}  // namespace fdx
