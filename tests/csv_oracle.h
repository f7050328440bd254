#ifndef FDX_TESTS_CSV_ORACLE_H_
#define FDX_TESTS_CSV_ORACLE_H_

// The line-at-a-time CSV parser that every CSV entry point ran before
// the parallel reader (data/csv_reader.h) replaced it, kept verbatim as
// the differential oracle of the reader's tests: the reader must agree
// with it on every schema, cell, code and error.

#include <istream>
#include <string>
#include <vector>

#include "data/csv.h"

namespace fdx::oracle {

/// Splits one CSV record honoring double-quote escaping.
std::vector<std::string> SplitCsvLine(const std::string& line, char delim);

bool IsNullToken(const std::string& field, const CsvOptions& options);

/// The incremental line parser: chunks of at most `chunk_rows` rows (0 =
/// one chunk at end-of-stream) go to `sink`; errors cite 1-based
/// physical lines.
Status ParseCsvStream(std::istream& in, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink,
                      const std::string& stream_name);

/// The old ReadCsvFromString: ParseCsvStream over `text` as one chunk.
Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options = {});

}  // namespace fdx::oracle

#endif  // FDX_TESTS_CSV_ORACLE_H_
