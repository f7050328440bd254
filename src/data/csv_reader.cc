#include "data/csv_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fdx {

namespace {

std::atomic<size_t> g_block_bytes{0};  // 0 = kCsvBlockBytes

enum class CellKind : uint8_t { kNull, kInt, kDouble, kString };

/// One typed cell; `text` views the trimmed token (strings only).
struct Cell {
  CellKind kind = CellKind::kNull;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string_view text;
};

/// The cell-typing rule of every CSV entry point: trim, null tokens,
/// then Value::Parse's IsInteger, IsDouble, else string.
Cell TypeCell(std::string_view field,
              const std::vector<std::string>& null_tokens) {
  Cell cell;
  const std::string_view token = StripAsciiWhitespace(field);
  if (token.empty()) return cell;
  for (const std::string& null_token : null_tokens) {
    if (token == null_token) return cell;
  }
  const char* begin = token.data();
  const char* end = begin + token.size();
  if (IsInteger(token)) {
    cell.kind = CellKind::kInt;
    std::from_chars(begin, end, cell.int_value);
  } else if (IsDouble(token)) {
    cell.kind = CellKind::kDouble;
    std::from_chars(begin, end, cell.double_value);
  } else {
    cell.kind = CellKind::kString;
    cell.text = token;
  }
  return cell;
}

/// Splits one record (trailing '\r' already removed) on `delim`,
/// honouring double-quote escaping: a '"' toggles quoting anywhere in a
/// field and '""' inside quotes is a literal quote. Unquoted fields view
/// `line`; quoted ones are unescaped into `scratch`, which is reserved up
/// front so the views stay valid.
void SplitRecord(std::string_view line, char delim,
                 std::vector<std::string_view>* fields,
                 std::string* scratch) {
  fields->clear();
  scratch->clear();
  scratch->reserve(line.size());
  const size_t n = line.size();
  size_t pos = 0;
  while (true) {
    size_t i = pos;
    while (i < n && line[i] != delim && line[i] != '"') ++i;
    if (i == n || line[i] == delim) {
      fields->push_back(line.substr(pos, i - pos));
    } else {
      const size_t start = scratch->size();
      scratch->append(line, pos, i - pos);
      bool in_quotes = false;
      for (; i < n; ++i) {
        const char ch = line[i];
        if (in_quotes) {
          if (ch != '"') {
            scratch->push_back(ch);
          } else if (i + 1 < n && line[i + 1] == '"') {
            scratch->push_back('"');
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (ch == '"') {
          in_quotes = true;
        } else if (ch == delim) {
          break;
        } else {
          scratch->push_back(ch);
        }
      }
      fields->push_back(
          std::string_view(scratch->data() + start, scratch->size() - start));
    }
    if (i == n) return;
    pos = i + 1;
  }
}

/// A block's dictionary of one column: exact value -> local code, codes
/// numbered in row order. Small non-negative ints index a direct table;
/// other values are hashed on the int, the double's bits, or the bytes.
class LocalDictionary {
 public:
  struct Entry {
    CellKind kind;
    int64_t int_value;
    double double_value;
    std::string_view text;  ///< views the key in strings_
  };

  void Clear() {
    for (const Entry& e : entries_) {
      if (IsSmall(e.kind, e.int_value)) small_[e.int_value] = -1;
    }
    ints_.clear();
    doubles_.clear();
    strings_.clear();
    entries_.clear();
  }

  int32_t Intern(const Cell& cell) {
    const int32_t next = static_cast<int32_t>(entries_.size());
    Entry entry{cell.kind, cell.int_value, cell.double_value, {}};
    if (IsSmall(cell.kind, cell.int_value)) {
      if (small_.empty()) small_.assign(kSmallInts, -1);
      int32_t& code = small_[cell.int_value];
      if (code < 0) {
        code = next;
        entries_.push_back(entry);
      }
      return code;
    }
    bool inserted = false;
    int32_t code = next;
    if (cell.kind == CellKind::kInt) {
      const auto result = ints_.try_emplace(cell.int_value, next);
      code = result.first->second;
      inserted = result.second;
    } else if (cell.kind == CellKind::kDouble) {
      uint64_t bits;
      std::memcpy(&bits, &cell.double_value, sizeof(bits));
      const auto result = doubles_.try_emplace(bits, next);
      code = result.first->second;
      inserted = result.second;
    } else {
      auto found = strings_.find(cell.text);
      if (found == strings_.end()) {
        found = strings_.emplace(std::string(cell.text), next).first;
        entry.text = found->first;
        inserted = true;
      }
      code = found->second;
    }
    if (inserted) entries_.push_back(entry);
    return code;
  }

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t code) const { return entries_[code]; }

 private:
  static constexpr int64_t kSmallInts = 1024;
  static bool IsSmall(CellKind kind, int64_t value) {
    return kind == CellKind::kInt && value >= 0 && value < kSmallInts;
  }

  std::vector<int32_t> small_;
  std::unordered_map<int64_t, int32_t> ints_;
  std::unordered_map<uint64_t, int32_t> doubles_;
  std::unordered_map<std::string, int32_t, TransparentStringHash,
                     std::equal_to<>>
      strings_;
  std::vector<Entry> entries_;
};

/// One block of a window: its byte range and, once parsed, the codes of
/// its rows, its local dictionaries and its first bad line, if any. The
/// codes are local until the remap pass turns them into storage codes.
struct Block {
  const char* begin = nullptr;
  const char* end = nullptr;
  size_t rows = 0;  ///< good rows, all before any bad line
  std::optional<size_t> bad_fields;  ///< field count of the bad line
  std::vector<std::vector<int32_t>> codes;
  std::vector<LocalDictionary> dicts;
  std::vector<std::string_view> fields;
  std::string scratch;

  void Parse(size_t width, const CsvOptions& options) {
    rows = 0;
    bad_fields.reset();
    codes.resize(width);
    dicts.resize(width);
    for (size_t c = 0; c < width; ++c) {
      codes[c].clear();
      dicts[c].Clear();
    }
    const char* p = begin;
    while (p < end) {
      const char* nl =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      const char* line_end = nl != nullptr ? nl : end;
      std::string_view line(p, line_end - p);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      SplitRecord(line, options.delimiter, &fields, &scratch);
      if (fields.size() != width) {
        bad_fields = fields.size();
        return;
      }
      for (size_t c = 0; c < width; ++c) {
        const Cell cell = TypeCell(fields[c], options.null_tokens);
        codes[c].push_back(cell.kind == CellKind::kNull
                               ? EncodedTable::kNullCode
                               : dicts[c].Intern(cell));
      }
      ++rows;
      p = nl != nullptr ? nl + 1 : end;
    }
  }
};

int32_t InternEntry(const LocalDictionary::Entry& e, ColumnDictionary* dict) {
  switch (e.kind) {
    case CellKind::kInt:
      return dict->InternInt(e.int_value);
    case CellKind::kDouble:
      return dict->InternDouble(e.double_value);
    default:
      return dict->InternString(e.text);
  }
}

}  // namespace

struct CsvReader::State {
  State(const CsvOptions& options, std::string name, size_t max_window_bytes)
      : options(options),
        name(std::move(name)),
        block_bytes(g_block_bytes.load(std::memory_order_relaxed)),
        threads(ResolveThreadCount(0)) {
    if (block_bytes == 0) block_bytes = kCsvBlockBytes;
    window_blocks = threads;
    if (max_window_bytes > 0) {
      window_blocks =
          std::clamp(max_window_bytes / block_bytes, size_t{1}, threads);
    }
  }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  CsvOptions options;
  std::string name;  ///< path, or "CSV buffer"; decorates read errors
  int fd = -1;       ///< file source
  std::string_view text;  ///< buffer source (when fd < 0)
  size_t text_pos = 0;
  size_t block_bytes;
  size_t threads;
  size_t window_blocks;  ///< blocks per window, at most `threads`
  Schema schema;
  /// Unparsed input is buf[begin, buf.size()); `line` is the 1-based
  /// physical line number of buf[begin].
  std::string buf;
  size_t begin = 0;
  size_t line = 1;
  bool eof = false;
  Status pending;  ///< error due after the rows before it are delivered
  std::vector<Block> blocks;
  size_t used_blocks = 0;  ///< blocks of the last window, in file order
  std::vector<std::vector<int32_t>> remaps;  ///< per-thread scratch

  ~State() {
    if (fd >= 0) ::close(fd);
  }

  size_t window() const { return window_blocks * block_bytes; }

  /// Appends up to `want` more input bytes to buf, after dropping the
  /// parsed prefix.
  Status ReadMore(size_t want) {
    if (begin > 0) {
      buf.erase(0, begin);
      begin = 0;
    }
    if (fd < 0) {
      const size_t take = std::min(want, text.size() - text_pos);
      buf.append(text.substr(text_pos, take));
      text_pos += take;
      eof = text_pos == text.size();
      return Status::OK();
    }
    const size_t old = buf.size();
    buf.resize(old + want);
    size_t got = 0;
    while (got < want) {
      const ssize_t n = ::read(fd, buf.data() + old + got, want - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        buf.resize(old + got);
        return Status::IOError("error while reading " + name);
      }
      if (n == 0) {
        eof = true;
        break;
      }
      got += static_cast<size_t>(n);
    }
    buf.resize(old + got);
    return Status::OK();
  }

  /// Index one past the end of the first complete line at buf[begin]
  /// (reading as needed), or buf.size() when the input ends first.
  Result<size_t> NextLineEnd() {
    size_t scanned = begin;
    while (true) {
      const size_t nl = buf.find('\n', scanned);
      if (nl != std::string::npos) return nl + 1;
      if (eof) return buf.size();
      scanned = buf.size() - begin;
      FDX_RETURN_IF_ERROR(ReadMore(window()));
      // ReadMore moved buf[begin] to 0.
    }
  }

  /// Skips leading blank lines, then takes the header (or, headerless,
  /// the first record's width) from the first non-blank line.
  Status ReadHeader() {
    std::vector<std::string_view> fields;
    std::string scratch;
    while (true) {
      FDX_ASSIGN_OR_RETURN(const size_t line_end, NextLineEnd());
      if (begin == buf.size()) return Status::OK();  // no non-blank line
      std::string_view record(buf.data() + begin, line_end - begin);
      if (!record.empty() && record.back() == '\n') record.remove_suffix(1);
      if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
      if (record.empty()) {
        begin = line_end;
        ++line;
        continue;
      }
      SplitRecord(record, options.delimiter, &fields, &scratch);
      std::vector<std::string> names;
      if (!options.has_header) {
        // The first record is data; it only fixes the width.
        for (size_t i = 0; i < fields.size(); ++i) {
          names.push_back("col" + std::to_string(i));
        }
        schema = Schema(std::move(names));
        return Status::OK();
      }
      std::unordered_set<std::string_view> seen;
      for (size_t c = 0; c < fields.size(); ++c) {
        if (fields[c].empty()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line) +
              ": empty header name in column " + std::to_string(c + 1));
        }
        if (!seen.insert(fields[c]).second) {
          return Status::InvalidArgument("line " + std::to_string(line) +
                                         ": duplicate header name '" +
                                         std::string(fields[c]) + "'");
        }
        names.emplace_back(fields[c]);
      }
      schema = Schema(std::move(names));
      begin = line_end;
      ++line;
      return Status::OK();
    }
  }

  /// Parses the next window into blocks[0, used_blocks), whose codes
  /// become storage codes: new values are interned into `dicts`. Returns
  /// false once the input is exhausted. The rows before a bad line are
  /// delivered; its error comes from the next call.
  Result<bool> Next(std::vector<ColumnDictionary>* dicts) {
    FDX_RETURN_IF_ERROR(pending);
    used_blocks = 0;
    const size_t width = schema.size();
    if (width == 0) return false;
    if (!eof && buf.size() - begin < window()) {
      FDX_RETURN_IF_ERROR(ReadMore(window() - (buf.size() - begin)));
    }
    // Parse up to the last newline; a line longer than the window is
    // read through to its end.
    size_t end = buf.size();
    if (!eof) {
      const size_t last = buf.rfind('\n');
      if (last != std::string::npos && last >= begin) {
        end = last + 1;
      } else {
        FDX_ASSIGN_OR_RETURN(end, NextLineEnd());
      }
    }
    if (begin == end) return false;

    // Cut [begin, end) into blocks at newlines: each block ends just
    // after the first newline at or past its even share of the bytes
    // (a block a long line has swallowed is empty). Then tokenize.
    const size_t bytes = end - begin;
    const size_t num_blocks =
        std::min(window_blocks, (bytes + block_bytes - 1) / block_bytes);
    if (blocks.size() < num_blocks) blocks.resize(num_blocks);
    const char* const first = buf.data() + begin;
    const char* const last = buf.data() + end;
    const char* cut = first;
    for (size_t b = 0; b < num_blocks; ++b) {
      blocks[b].begin = cut;
      if (b + 1 < num_blocks) {
        // The share is >= 1 byte, so target - 1 stays inside the window.
        const char* target =
            std::max(cut, first + bytes * (b + 1) / num_blocks);
        const void* nl = std::memchr(target - 1, '\n', last - (target - 1));
        cut = nl == nullptr ? last : static_cast<const char*>(nl) + 1;
      } else {
        cut = last;
      }
      blocks[b].end = cut;
    }
    ParallelFor(0, num_blocks, threads, [&](size_t lo, size_t hi) {
      for (size_t b = lo; b < hi; ++b) blocks[b].Parse(width, options);
    });

    // Rows up to the first bad line (in file order) are delivered.
    used_blocks = num_blocks;
    size_t rows = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      rows += blocks[b].rows;
      if (blocks[b].bad_fields) {
        pending = Status::IOError(
            "line " + std::to_string(line + rows) + ": CSV row with " +
            std::to_string(*blocks[b].bad_fields) + " fields; expected " +
            std::to_string(width));
        used_blocks = b + 1;
        break;
      }
    }

    // Remap, in place: block-local codes -> the caller's storage codes,
    // interning each block's entries in block order, hence in file
    // order. A one-block window stays on the calling thread.
    const size_t remap_threads = num_blocks == 1 ? 1 : threads;
    const size_t num_chunks = std::min(remap_threads, width);
    if (remaps.size() < num_chunks) remaps.resize(num_chunks);
    ParallelForChunks(
        0, width, num_chunks, remap_threads,
        [&](size_t chunk, size_t lo, size_t hi) {
          std::vector<int32_t>& remap = remaps[chunk];
          for (size_t c = lo; c < hi; ++c) {
            for (size_t b = 0; b < used_blocks; ++b) {
              const LocalDictionary& local = blocks[b].dicts[c];
              remap.resize(local.size());
              for (size_t e = 0; e < local.size(); ++e) {
                remap[e] = InternEntry(local.entry(e), &(*dicts)[c]);
              }
              for (int32_t& code : blocks[b].codes[c]) {
                if (code != EncodedTable::kNullCode) code = remap[code];
              }
            }
          }
        });
    begin = end;
    line += rows;
    return true;
  }
};

CsvReader::CsvReader(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
CsvReader::CsvReader(CsvReader&&) noexcept = default;
CsvReader& CsvReader::operator=(CsvReader&&) noexcept = default;
CsvReader::~CsvReader() = default;

Result<CsvReader> CsvReader::Open(const std::string& path,
                                  const CsvOptions& options,
                                  size_t max_window_bytes) {
  FDX_RETURN_IF_ERROR(CheckCsvDelimiter(options.delimiter));
  FDX_INJECT_FAULT(kFaultCsvRead,
                   Status::IOError("injected fault: csv.read " + path));
  auto state = std::make_unique<State>(options, path, max_window_bytes);
  state->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (state->fd < 0) return Status::IOError("cannot open " + path);
  FDX_RETURN_IF_ERROR(state->ReadHeader());
  return CsvReader(std::move(state));
}

Result<CsvReader> CsvReader::FromBuffer(std::string_view text,
                                        const CsvOptions& options) {
  FDX_RETURN_IF_ERROR(CheckCsvDelimiter(options.delimiter));
  auto state = std::make_unique<State>(options, "CSV buffer",
                                       /*max_window_bytes=*/0);
  state->text = text;
  FDX_RETURN_IF_ERROR(state->ReadHeader());
  return CsvReader(std::move(state));
}

const Schema& CsvReader::schema() const { return state_->schema; }

Status CsvReader::ReadChunks(std::vector<ColumnDictionary>* dicts,
                             size_t chunk_rows,
                             const CsvCodeChunkSink& sink) {
  const size_t k = schema().size();
  std::vector<std::vector<int32_t>> chunk(k);
  size_t rows = 0;
  while (true) {
    FDX_ASSIGN_OR_RETURN(const bool more, state_->Next(dicts));
    if (!more) break;
    for (size_t b = 0; b < state_->used_blocks; ++b) {
      const Block& block = state_->blocks[b];
      for (size_t r = 0; r < block.rows;) {
        const size_t take = chunk_rows == 0
                                ? block.rows - r
                                : std::min(block.rows - r, chunk_rows - rows);
        for (size_t c = 0; c < k; ++c) {
          const auto from = block.codes[c].begin() + r;
          chunk[c].insert(chunk[c].end(), from, from + take);
        }
        r += take;
        rows += take;
        if (rows == chunk_rows) {
          FDX_RETURN_IF_ERROR(sink(std::move(chunk), rows));
          chunk.assign(k, {});
          rows = 0;
        }
      }
    }
  }
  if (rows > 0) return sink(std::move(chunk), rows);
  return Status::OK();
}

namespace internal {
size_t SetCsvBlockBytesForTesting(size_t bytes) {
  return g_block_bytes.exchange(bytes, std::memory_order_relaxed);
}
}  // namespace internal

}  // namespace fdx
