#include "csv_oracle.h"

#include <sstream>
#include <unordered_set>

#include "util/string_util.h"

namespace fdx::oracle {


/// Splits one CSV record honoring double-quote escaping.
std::vector<std::string> SplitCsvLine(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == delim) {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += ch;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

bool IsNullToken(const std::string& field, const CsvOptions& options) {
  if (field.empty()) return true;
  for (const auto& token : options.null_tokens) {
    if (field == token) return true;
  }
  return false;
}

/// The single incremental parser behind every CSV entry point. Walks the
/// stream line by line (never buffering the input), emits chunks of at
/// most `chunk_rows` rows to `sink` (0 = one chunk at end-of-stream),
/// and reports errors with 1-based physical line numbers. `stream_name`
/// only decorates the message of a low-level read failure.
Status ParseCsvStream(std::istream& in, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink,
                      const std::string& stream_name) {
  std::string line;
  std::vector<std::string> header;
  Table chunk;
  bool have_schema = false;
  bool emitted_chunk = false;
  bool any_rows = false;
  size_t width = 0;
  size_t line_number = 0;  // 1-based, counting every physical line
  bool first = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && !any_rows && header.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.delimiter);
    if (first) {
      width = fields.size();
      first = false;
      if (options.has_header) {
        std::unordered_set<std::string> seen;
        for (size_t c = 0; c < fields.size(); ++c) {
          if (fields[c].empty()) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_number) +
                ": empty header name in column " + std::to_string(c + 1));
          }
          if (!seen.insert(fields[c]).second) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_number) +
                ": duplicate header name '" + fields[c] + "'");
          }
        }
        header = std::move(fields);
        continue;
      }
      // Headerless: synthesize the names the moment the width is known,
      // so chunks can carry the schema from the first row on.
      for (size_t i = 0; i < width; ++i) {
        header.push_back("col" + std::to_string(i));
      }
    }
    if (fields.size() != width) {
      return Status::IOError("line " + std::to_string(line_number) +
                             ": CSV row with " +
                             std::to_string(fields.size()) +
                             " fields; expected " + std::to_string(width));
    }
    if (!have_schema) {
      chunk = Table{Schema(header)};
      have_schema = true;
    }
    std::vector<Value> row;
    row.reserve(width);
    for (auto& field : fields) {
      std::string trimmed(StripAsciiWhitespace(field));
      row.push_back(IsNullToken(trimmed, options) ? Value::Null()
                                                  : Value::Parse(trimmed));
    }
    chunk.AppendRow(std::move(row));
    any_rows = true;
    if (chunk_rows != 0 && chunk.num_rows() >= chunk_rows) {
      FDX_RETURN_IF_ERROR(sink(std::move(chunk)));
      emitted_chunk = true;
      chunk = Table{Schema(header)};
    }
  }
  if (in.bad()) {
    return Status::IOError("error while reading " + stream_name);
  }
  // Flush the trailing partial chunk. A row-less stream still emits one
  // empty chunk so the sink always learns the schema.
  if (!have_schema) chunk = Table{Schema(std::move(header))};
  if (chunk.num_rows() > 0 || !emitted_chunk) {
    FDX_RETURN_IF_ERROR(sink(std::move(chunk)));
  }
  return Status::OK();
}

Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options) {
  std::istringstream in(text);
  Table out;
  FDX_RETURN_IF_ERROR(ParseCsvStream(
      in, options, /*chunk_rows=*/0,
      [&out](Table&& table) {
        out = std::move(table);
        return Status::OK();
      },
      "CSV buffer"));
  return out;
}

}  // namespace fdx::oracle
