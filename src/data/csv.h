#ifndef FDX_DATA_CSV_H_
#define FDX_DATA_CSV_H_

#include <functional>
#include <string>

#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Options for CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Fields equal to any of these (after trimming) become nulls in
  /// addition to the empty string.
  std::vector<std::string> null_tokens = {"NULL", "null", "NA", "?"};
};

/// OK when `delimiter` can separate CSV fields: any byte but '"', CR and
/// LF. Otherwise an InvalidArgument saying so. The one delimiter rule of
/// the CSV reader and of the tools' --delimiter flag.
Status CheckCsvDelimiter(char delimiter);

/// Reads a CSV file into a Table. Values are type-inferred per cell
/// (integer, double, else string); empty fields and null tokens map to
/// null. Quoted fields with embedded delimiters/quotes are supported; a
/// record is one physical line. Parse errors cite the 1-based line
/// number; duplicate or empty header names are rejected with
/// kInvalidArgument, and so is a delimiter CheckCsvDelimiter rejects.
/// Every entry point — ReadCsv, ReadCsvFromString,
/// ReadCsvEncoded and the chunked readers below — runs the one parallel
/// reader of data/csv_reader.h, so they cannot diverge: identical cells,
/// identical error messages with identical line numbers. The Table
/// entry points decode the reader's dictionary codes, so each cell's
/// Value is its column's dictionary entry. The file is read through a
/// bounded window, never as a whole.
Result<Table> ReadCsv(const std::string& path, const CsvOptions& options = {});

/// Parses CSV from an in-memory buffer — the server's ingestion path for
/// uploaded batches (no temp files), with the same type inference, null
/// handling, and 1-based line numbers in error messages as ReadCsv.
Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options = {});

/// Receives one parsed chunk. Chunks arrive in file order, each carrying
/// the full schema; a non-OK return aborts the read and propagates.
using CsvChunkSink = std::function<Status(Table&&)>;

/// Streaming ingest: parses `path` and hands the rows to `sink` in
/// chunks of at most `chunk_rows` rows (0 means a single chunk), never
/// holding more than one chunk and one reader window in memory. On
/// success the sink is invoked at least once — a row-less file yields
/// one empty chunk whose schema carries the (possibly empty) header — so
/// callers always learn the schema. On error, chunks already delivered
/// are void: the file failed to parse as a whole, exactly as ReadCsv
/// would report it.
Status ReadCsvChunked(const std::string& path, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink);

/// ReadCsvChunked over an in-memory buffer (tests and the service).
Status ReadCsvChunkedFromString(const std::string& text,
                                const CsvOptions& options, size_t chunk_rows,
                                const CsvChunkSink& sink);

/// Reads a CSV file straight into dictionary codes, without a Value per
/// cell: exactly EncodedTable::Encode(ReadCsv(path, options)), errors
/// included. The in-memory `fdxtool discover` path.
Result<EncodedTable> ReadCsvEncoded(const std::string& path,
                                    const CsvOptions& options = {});

/// ReadCsvEncoded over an in-memory buffer.
Result<EncodedTable> ReadCsvEncodedFromString(const std::string& text,
                                              const CsvOptions& options = {});

/// Historical alias of ReadCsvFromString (used heavily by tests).
Result<Table> ParseCsv(const std::string& text, const CsvOptions& options = {});

/// Writes a table as CSV with a header row.
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

}  // namespace fdx

#endif  // FDX_DATA_CSV_H_
