#ifndef FDX_DATA_CSV_READER_H_
#define FDX_DATA_CSV_READER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/csv.h"
#include "data/dictionary.h"
#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Input bytes per block. A window holds one block per thread, or fewer
/// when the reader's window is bounded (CsvReader::Open).
inline constexpr size_t kCsvBlockBytes = size_t{1} << 20;

/// Receives `rows` consecutive CSV rows as storage codes, column-major:
/// codes index the caller's ColumnDictionary of each column, and
/// EncodedTable::kNullCode marks a null cell.
using CsvCodeChunkSink =
    std::function<Status(std::vector<std::vector<int32_t>>&& codes,
                         size_t rows)>;

/// The one CSV parser behind every entry point (ReadCsv, ReadCsvEncoded,
/// the chunked readers, and the chunk store's CSV ingest).
///
/// Records are physical lines: a quoted field never spans a newline, so
/// the input can be cut at any '\n'. The reader pulls the input through
/// a window of one kCsvBlockBytes block per thread (threads resolve like
/// the pair transform's: FDX_THREADS, else the hardware), cuts the
/// window into blocks at newlines, and tokenizes the blocks in parallel.
/// Each block types its cells and interns them into block-local
/// dictionaries keyed on the exact value. A remap pass, sequential
/// within a column and parallel across columns, then interns each
/// block's local entries into the caller's dictionaries in block order.
/// Local entries are numbered in row order, so storage and transform
/// codes follow first appearance in the file, exactly as if the rows
/// had been interned one by one. A window of one block (any input
/// smaller than a block) is parsed and remapped on the calling thread.
/// The reader's working set is a few times its window: the window's
/// text, its rows' codes and the blocks' dictionaries.
///
/// Cells are typed by one rule: trim ASCII whitespace; the empty string
/// and CsvOptions::null_tokens are null; then integer, then double
/// (IsInteger, IsDouble), else string — the typing of Value::Parse.
///
/// Errors cite the 1-based physical line, in file order: an empty or
/// duplicate header name (kInvalidArgument), a row whose field count
/// differs from the first record's (kIOError), an unreadable input
/// (kIOError).
class CsvReader {
 public:
  /// Opens `path` and reads its header (or, headerless, its first
  /// record's width). Fires the `csv.read` fault point. A nonzero
  /// `max_window_bytes` caps the window at that many bytes' worth of
  /// whole blocks (at least one), so a caller under a memory ceiling
  /// bounds the reader's working set whatever the thread count.
  static Result<CsvReader> Open(const std::string& path,
                                const CsvOptions& options,
                                size_t max_window_bytes = 0);
  /// Same over an in-memory buffer, which must outlive the reader.
  static Result<CsvReader> FromBuffer(std::string_view text,
                                      const CsvOptions& options);

  CsvReader(CsvReader&&) noexcept;
  CsvReader& operator=(CsvReader&&) noexcept;
  ~CsvReader();

  /// Header names, or col0..colN-1 when headerless; empty when the input
  /// holds no non-blank line.
  const Schema& schema() const;

  /// Parses the rest of the input, handing `sink` its rows in chunks of
  /// `chunk_rows` rows (0 = one chunk), the last one shorter; a row-less
  /// input gives no chunk. `dicts` holds one dictionary per schema column;
  /// new values are interned into it. Chunks before a bad line are
  /// delivered, then its error is returned; a sink error aborts the read.
  Status ReadChunks(std::vector<ColumnDictionary>* dicts, size_t chunk_rows,
                    const CsvCodeChunkSink& sink);

 private:
  struct State;
  explicit CsvReader(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

namespace internal {
/// Test seam: readers opened after this call cut blocks every `bytes`
/// bytes (0 restores kCsvBlockBytes). Returns the previous setting.
size_t SetCsvBlockBytesForTesting(size_t bytes);
}  // namespace internal

}  // namespace fdx

#endif  // FDX_DATA_CSV_READER_H_
