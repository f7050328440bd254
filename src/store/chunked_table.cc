#include "store/chunked_table.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "data/cell_json.h"
#include "data/code_column.h"
#include "store/chunk_codec.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace fdx {
namespace {

/// Chunk files, by magic. Each starts with the magic and u64 rows, cols
/// and dict_bytes, and ends with the JSON dictionary delta. Every
/// chunk's fingerprint covers an uncompressed serialization, and the
/// magic says which one:
///
///  FDXCHNK1  raw: each column's storage codes as int32, column after
///            column. Its fingerprint covers the file.
///  FDXCHNK2  compressed: a u64 compressed size per column, then the
///            codec payloads. Fingerprint over its FDXCHNK1 form.
///  FDXCHNK3  raw narrow: one width byte per column, then each column's
///            codes at that width (1, 2 or 4 bytes; null = all-ones, see
///            data/code_column.h). Its fingerprint covers the file.
///  FDXCHNK4  compressed narrow: FDXCHNK3's width bytes, then a u64
///            compressed size per column and the codec payloads.
///            Fingerprint over its FDXCHNK3 form.
///
/// Writers emit FDXCHNK3 and FDXCHNK4; FDXCHNK1 and FDXCHNK2 are read so
/// older stores open unchanged. Integers are little-endian.
constexpr char kChunkMagic[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '1'};
constexpr char kChunkMagicV2[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '2'};
constexpr char kChunkMagicV3[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '3'};
constexpr char kChunkMagicV4[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '4'};
constexpr size_t kChunkHeaderBytes = 8 + 3 * 8;  // magic + rows/cols/dict_bytes
constexpr int kManifestVersion = 1;
/// A manifest's last member: `,"fingerprint":"<hex>"}` closes it, the
/// fingerprint of every byte before the comma. Manifests written before
/// it existed end at their chunk list.
constexpr char kManifestSeal[] = ",\"fingerprint\":\"";

// Narrow codes are stored with memcpy, i.e. in host byte order.
static_assert(std::endian::native == std::endian::little,
              "the chunk format is little-endian");

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// The header of an uncompressed (FDXCHNK1 or FDXCHNK3) serialization.
void AppendChunkHeader(std::string* out, const std::vector<uint8_t>& widths,
                       bool narrow, uint64_t rows, uint64_t dict_bytes) {
  out->append(narrow ? kChunkMagicV3 : kChunkMagic, sizeof(kChunkMagic));
  AppendU64(out, rows);
  AppendU64(out, widths.size());
  AppendU64(out, dict_bytes);
  if (narrow) out->append(widths.begin(), widths.end());
}

/// Appends `codes[0..n)` (kNullCode for nulls) at `width` bytes each,
/// nulls as the width's all-ones code.
void AppendCodesAtWidth(unsigned width, const int32_t* codes, size_t n,
                        std::string* out) {
  const size_t at = out->size();
  out->resize(at + n * width);
  uint8_t* dst = reinterpret_cast<uint8_t*>(out->data() + at);
  DispatchCodeWidth(width, [&](auto zero) {
    using T = decltype(zero);
    for (size_t i = 0; i < n; ++i) {
      StoreCode<T>(dst, i, static_cast<T>(codes[i]));
    }
  });
}

/// `result`, with a failure turned into IOError (prefixed by `context`):
/// whatever is wrong inside a store's files makes the store corrupt.
template <typename T>
Result<T> AsIOError(Result<T> result, const std::string& context) {
  if (result.ok() || result.status().code() == StatusCode::kIOError) {
    return result;
  }
  return Status::IOError(context + result.status().message());
}

/// Store JSON field `key` of `object` as an integer in [0, max]; IOError
/// for a missing, negative, fractional or out-of-range value.
Result<uint64_t> JsonCount(const JsonValue& object, const char* key,
                           uint64_t max = UINT64_MAX) {
  const JsonValue* value = object.Find(key);
  const std::optional<uint64_t> count =
      value == nullptr ? std::nullopt : value->CountValue(max);
  if (!count) {
    return Status::IOError(std::string("store: field '") + key +
                           "' must be an integer in [0, " +
                           std::to_string(max) + "]");
  }
  return *count;
}

std::string ChunkFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%06zu.bin", index);
  return buf;
}

std::string FingerprintHexOf(const char* data, size_t size) {
  Fingerprint fp;
  fp.Update(data, size);
  return fp.Hex();
}

std::string FingerprintHexOf(const std::string& contents) {
  return FingerprintHexOf(contents.data(), contents.size());
}

/// Every chunk-file and manifest write, behind the `store.write` fault
/// point.
Status WriteStoreFile(const std::string& path, const std::string& contents) {
  FDX_INJECT_FAULT(kFaultStoreWrite,
                   Status::IOError("store: cannot write '" + path +
                                   "' (injected fault)"));
  return WriteFileAtomic(path, contents);
}

/// Decompresses one column payload, with the `store.decompress` fault
/// point in front (no fallback — a chunk that won't decode is corrupt).
Status DecodeCompressedColumn(const ChunkCodec& codec, const char* data,
                              size_t size, size_t n, int32_t* out,
                              const std::string& chunk_file) {
  FDX_INJECT_FAULT(kFaultStoreDecompress,
                   Status::IOError("store: chunk '" + chunk_file +
                                   "' decompression failed (injected fault)"));
  Status status = codec.DecodeColumn(data, size, n, out);
  if (!status.ok()) {
    return Status::IOError("store: chunk '" + chunk_file +
                           "': " + status.message());
  }
  return Status::OK();
}

}  // namespace

/// A chunk file's parsed layout and, while loaded, the file itself.
/// LoadChunk reads the whole file and parses it; GetChunkIo keeps the
/// layout alone, so a cached chunk holds neither bytes nor a file
/// descriptor. Immutable once built, so concurrent column reads share it
/// without further locking.
struct ChunkedTable::ChunkIo {
  /// The whole chunk file while loaded; empty in a cached layout, whose
  /// column reads pread their slice.
  std::string contents;
  bool compressed = false;  ///< FDXCHNK2 or FDXCHNK4
  bool narrow = false;      ///< FDXCHNK3 or FDXCHNK4: width bytes present
  uint64_t dict_offset = 0;
  uint64_t dict_bytes = 0;
  /// Per column: code width (4 in FDXCHNK1/2) and payload byte range,
  /// parsed once from the header, so column reads never touch header
  /// state again.
  std::vector<uint8_t> widths;
  std::vector<uint64_t> col_offsets;
  std::vector<uint64_t> col_sizes;

  /// Parses the header of the loaded file into the layout fields,
  /// checking it against the manifest's row count and the schema's
  /// column count. Offsets are checked against the file size as they
  /// accumulate, so no header can make them overflow or point past the
  /// end.
  Status ParseLayout(uint64_t expected_rows, size_t k, bool have_codec,
                     const std::string& path) {
    const Status bad_header =
        Status::IOError("store: chunk '" + path + "' has a bad header");
    const Status bad_shape = Status::IOError(
        "store: chunk '" + path + "' shape disagrees with the manifest");
    const uint64_t file_size = contents.size();
    if (file_size < kChunkHeaderBytes) return bad_header;
    const char* header = contents.data();
    const auto is = [&](const char* magic) {
      return std::memcmp(header, magic, sizeof(kChunkMagic)) == 0;
    };
    if (!is(kChunkMagic) && !is(kChunkMagicV2) && !is(kChunkMagicV3) &&
        !is(kChunkMagicV4)) {
      return bad_header;
    }
    compressed = is(kChunkMagicV2) || is(kChunkMagicV4);
    narrow = is(kChunkMagicV3) || is(kChunkMagicV4);
    const uint64_t rows = ReadU64(header + 8);
    const uint64_t cols = ReadU64(header + 16);
    dict_bytes = ReadU64(header + 24);
    if (rows != expected_rows || cols != k) return bad_shape;
    // Every format spends at least a byte per code, so a file holds no
    // more rows than bytes. This bounds every buffer a reader sizes by
    // rows, and keeps rows * width below from overflowing.
    if (k != 0 && rows > file_size) return bad_shape;
    if (compressed && !have_codec) {
      return Status::IOError("store: chunk '" + path +
                             "' is compressed but the manifest names no "
                             "codec");
    }
    uint64_t offset = kChunkHeaderBytes;
    widths.assign(k, 4);
    if (narrow) {
      if (file_size - offset < k) return bad_header;
      std::memcpy(widths.data(), header + offset, k);
      for (uint8_t width : widths) {
        if (width != 1 && width != 2 && width != 4) return bad_header;
      }
      offset += k;
    }
    col_sizes.resize(k);
    if (compressed) {
      if ((file_size - offset) / 8 < k) return bad_header;
      for (size_t c = 0; c < k; ++c) {
        col_sizes[c] = ReadU64(header + offset + c * 8);
      }
      offset += k * 8;
    } else {
      for (size_t c = 0; c < k; ++c) col_sizes[c] = rows * widths[c];
    }
    col_offsets.resize(k);
    for (size_t c = 0; c < k; ++c) {
      if (col_sizes[c] > file_size - offset) return bad_shape;
      col_offsets[c] = offset;
      offset += col_sizes[c];
    }
    dict_offset = offset;
    if (dict_bytes != file_size - offset) return bad_shape;
    return Status::OK();
  }
};

ChunkedTable::ChunkedTable() = default;
ChunkedTable::~ChunkedTable() = default;
ChunkedTable::ChunkedTable(ChunkedTable&&) noexcept = default;
ChunkedTable& ChunkedTable::operator=(ChunkedTable&&) noexcept = default;

Result<ChunkedTable> ChunkedTable::Create(const Schema& schema,
                                          std::string dir,
                                          const std::string& codec) {
  ChunkedTable table;
  table.schema_ = schema;
  table.dir_ = std::move(dir);
  table.dicts_.resize(schema.size());
  table.committed_.assign(schema.size(), 0);
  table.null_counts_.assign(schema.size(), 0);
  FDX_ASSIGN_OR_RETURN(table.codec_, FindChunkCodec(codec));
  table.codec_name_ = table.codec_ == nullptr ? "none" : table.codec_->name();
  if (!table.dir_.empty()) {
    FDX_RETURN_IF_ERROR(EnsureDirectory(table.dir_));
    FDX_RETURN_IF_ERROR(table.WriteManifest());
  }
  return table;
}

std::string ChunkedTable::SerializeChunk(
    const StoredChunk& chunk, const std::vector<size_t>& dict_starts,
    const std::vector<uint8_t>& widths) const {
  const size_t k = schema_.size();
  // Dictionary delta: per column, the storage codes [start, end) this
  // chunk introduced and their exact values.
  JsonWriter json;
  json.BeginObject();
  json.Key("cols");
  json.BeginArray();
  for (size_t c = 0; c < k; ++c) {
    json.BeginObject();
    json.Key("start");
    json.Integer(static_cast<int64_t>(dict_starts[c]));
    json.Key("values");
    json.BeginArray();
    for (size_t s = dict_starts[c]; s < committed_[c]; ++s) {
      WriteCellJson(&json, dicts_[c].value(static_cast<int32_t>(s)));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const std::string dict_json = json.TakeString();

  std::string out;
  size_t code_bytes = 0;
  for (uint8_t width : widths) code_bytes += chunk.rows * width;
  out.reserve(kChunkHeaderBytes + k + code_bytes + dict_json.size());
  AppendChunkHeader(&out, widths, /*narrow=*/true, chunk.rows,
                    dict_json.size());
  for (size_t c = 0; c < k; ++c) {
    AppendCodesAtWidth(widths[c], chunk.codes[c].data(), chunk.rows, &out);
  }
  out += dict_json;
  return out;
}

std::string ChunkedTable::EncodeManifest() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kManifestVersion);
  json.Key("schema");
  json.BeginArray();
  for (size_t c = 0; c < schema_.size(); ++c) json.String(schema_.name(c));
  json.EndArray();
  // Raw stores omit the key, so their manifests stay byte-identical to
  // pre-codec writers.
  if (codec_name_ != "none") {
    json.Key("codec");
    json.String(codec_name_);
  }
  json.Key("total_rows");
  json.Integer(static_cast<int64_t>(total_rows_));
  json.Key("chunks");
  json.BeginArray();
  for (const StoredChunk& chunk : chunks_) {
    json.BeginObject();
    json.Key("file");
    json.String(chunk.file);
    json.Key("rows");
    json.Integer(static_cast<int64_t>(chunk.rows));
    json.Key("fingerprint");
    json.String(chunk.fingerprint_hex);
    json.EndObject();
  }
  json.EndArray();
  if (!commit_.empty()) {
    json.Key("commit");
    json.String(commit_);
  }
  json.EndObject();
  std::string text = json.TakeString();
  text.pop_back();  // '}'
  const std::string seal = FingerprintHexOf(text);
  return text + kManifestSeal + seal + "\"}";
}

Status ChunkedTable::WriteManifest() const {
  return WriteStoreFile(dir_ + "/manifest.json", EncodeManifest());
}

Status ChunkedTable::AppendBatch(const Table& batch,
                                 const std::string& commit) {
  const size_t k = schema_.size();
  if (batch.num_columns() != k) {
    return Status::InvalidArgument(
        "store: batch has " + std::to_string(batch.num_columns()) +
        " columns; expected " + std::to_string(k));
  }
  if (batch.num_rows() == 0) {
    return Status::InvalidArgument("store: batch has no rows");
  }
  std::vector<size_t> dict_sizes(k);
  std::vector<std::vector<int32_t>> codes(k);
  for (size_t c = 0; c < k; ++c) {
    dict_sizes[c] = dicts_[c].size();
    codes[c].reserve(batch.num_rows());
    for (const Value& v : batch.column(c)) {
      codes[c].push_back(v.is_null() ? EncodedTable::kNullCode
                                     : dicts_[c].Intern(v));
    }
  }
  Status status = AppendChunk(std::move(codes), batch.num_rows(), commit);
  if (!status.ok()) {
    // Forget the values only this batch brought, so the next chunk's
    // delta is what it would have been had the batch never come.
    for (size_t c = 0; c < k; ++c) dicts_[c].Truncate(dict_sizes[c]);
  }
  return status;
}

Status ChunkedTable::AppendCsv(CsvReader* reader, size_t chunk_rows) {
  const size_t k = schema_.size();
  if (reader->schema().size() != k) {
    return Status::InvalidArgument(
        "store: CSV has " + std::to_string(reader->schema().size()) +
        " columns; expected " + std::to_string(k));
  }
  return reader->ReadChunks(
      &dicts_, chunk_rows,
      [this](std::vector<std::vector<int32_t>>&& codes, size_t rows) {
        return AppendChunk(std::move(codes), rows, commit_);
      });
}

Status ChunkedTable::AppendChunk(std::vector<std::vector<int32_t>> codes,
                                 size_t rows, std::string commit) {
  const size_t k = schema_.size();
  const std::vector<size_t> dict_starts = committed_;
  const std::vector<size_t> null_counts = null_counts_;
  for (size_t c = 0; c < k; ++c) {
    for (int32_t code : codes[c]) {
      if (code == EncodedTable::kNullCode) {
        ++null_counts_[c];
      } else if (static_cast<size_t>(code) >= committed_[c]) {
        committed_[c] = static_cast<size_t>(code) + 1;
      }
    }
  }
  // A failed write puts the counters back, so the next chunk's delta
  // starts where Open's replay of the files on disk would.
  const auto undo = [&](Status status) {
    committed_ = dict_starts;
    null_counts_ = null_counts;
    return status;
  };
  StoredChunk chunk;
  chunk.rows = rows;
  chunk.codes = std::move(codes);
  // Each column's codes at the width of the dictionary committed so far.
  std::vector<uint8_t> widths(k);
  for (size_t c = 0; c < k; ++c) widths[c] = CodeWidthFor(committed_[c]);

  // The fingerprint always covers the uncompressed serialization, so
  // raw and compressed stores of the same data fingerprint identically.
  const std::string payload = SerializeChunk(chunk, dict_starts, widths);
  chunk.fingerprint_hex = FingerprintHexOf(payload);
  if (!dir_.empty()) {
    chunk.file = ChunkFileName(chunks_.size());
    std::string packed;
    if (codec_ != nullptr) {
      // Re-frame as FDXCHNK4: header and width bytes, per-column
      // compressed sizes, codec payloads, then the same dictionary tail.
      const size_t dict_bytes = ReadU64(payload.data() + 24);
      packed.append(kChunkMagicV4, sizeof(kChunkMagicV4));
      packed.append(payload, sizeof(kChunkMagicV4),
                    kChunkHeaderBytes - sizeof(kChunkMagicV4) + k);
      std::string columns;
      for (size_t c = 0; c < k; ++c) {
        const size_t before = columns.size();
        codec_->EncodeColumn(chunk.codes[c].data(), chunk.rows, &columns);
        AppendU64(&packed, columns.size() - before);
      }
      packed += columns;
      packed.append(payload, payload.size() - dict_bytes, dict_bytes);
    }
    Status written = WriteStoreFile(dir_ + "/" + chunk.file,
                                    codec_ != nullptr ? packed : payload);
    if (!written.ok()) return undo(std::move(written));
    chunk.codes.clear();  // durable now; drop the resident copy
  }
  total_rows_ += chunk.rows;
  chunks_.push_back(std::move(chunk));
  commit_.swap(commit);
  if (!dir_.empty()) {
    // The manifest is the commit point: until its rename, the files on
    // disk describe the store without this chunk.
    Status committed = WriteManifest();
    if (!committed.ok()) {
      (void)RemoveFile(dir_ + "/" + chunks_.back().file);
      chunks_.pop_back();
      total_rows_ -= rows;
      commit_.swap(commit);
      return undo(std::move(committed));
    }
  }
  return Status::OK();
}

Result<ChunkedTable::ChunkIo*> ChunkedTable::GetChunkIo(size_t index) const {
  const StoredChunk& chunk = chunks_[index];
  std::lock_guard<std::mutex> lock(*io_mu_);
  if (chunk.io != nullptr) return chunk.io.get();
  // First touch: verify the fingerprint before trusting any of the
  // chunk's codes, then keep only the layout; every later column read
  // preads straight from its precomputed byte range.
  FDX_ASSIGN_OR_RETURN(chunk.io, LoadChunk(index));
  std::string().swap(chunk.io->contents);
  return chunk.io.get();
}

Result<std::unique_ptr<ChunkedTable::ChunkIo>> ChunkedTable::LoadChunk(
    size_t index) const {
  const StoredChunk& chunk = chunks_[index];
  const std::string path = dir_ + "/" + chunk.file;
  auto io = std::make_unique<ChunkIo>();
  // A chunk the manifest names is part of the store: missing or
  // unreadable, the store is corrupt.
  FDX_ASSIGN_OR_RETURN(io->contents,
                       AsIOError(ReadFileToString(path), "store: "));
  FDX_RETURN_IF_ERROR(
      io->ParseLayout(chunk.rows, schema_.size(), codec_ != nullptr, path));
  FDX_RETURN_IF_ERROR(VerifyChunk(index, *io));
  return io;
}

Status ChunkedTable::VerifyChunk(size_t index, const ChunkIo& io) const {
  const StoredChunk& chunk = chunks_[index];
  std::string actual;
  if (io.compressed) {
    std::string raw;
    FDX_RETURN_IF_ERROR(ReconstructRawPayload(index, io, &raw));
    actual = FingerprintHexOf(raw);
  } else {
    actual = FingerprintHexOf(io.contents);
  }
  if (actual != chunk.fingerprint_hex) {
    return Status::IOError("store: chunk '" + dir_ + "/" + chunk.file +
                           "' fingerprint mismatch (corrupt store)");
  }
  return Status::OK();
}

/// The one slice decoder: column `col` of a spilled chunk, raw at its
/// width or through the codec, into int32 storage codes (kNullCode for
/// nulls).
Status ChunkedTable::ReadSlice(size_t index, const ChunkIo& io, size_t col,
                               int32_t* out) const {
  const StoredChunk& chunk = chunks_[index];
  const uint64_t offset = io.col_offsets[col];
  const uint64_t size = io.col_sizes[col];
  std::string slice;
  if (io.contents.empty()) {
    FDX_ASSIGN_OR_RETURN(
        slice, AsIOError(ReadFileSlice(dir_ + "/" + chunk.file, offset, size),
                         "store: "));
  }
  const char* data =
      io.contents.empty() ? slice.data() : io.contents.data() + offset;
  if (io.compressed) {
    return DecodeCompressedColumn(*codec_, data, size, chunk.rows, out,
                                  chunk.file);
  }
  const uint8_t* codes = reinterpret_cast<const uint8_t*>(data);
  DispatchCodeWidth(io.widths[col], [&](auto zero) {
    using T = decltype(zero);
    const T null = static_cast<T>(~T{0});
    for (size_t r = 0; r < chunk.rows; ++r) {
      const T code = LoadCode<T>(codes, r);
      out[r] = code == null ? EncodedTable::kNullCode
                            : static_cast<int32_t>(code);
    }
  });
  return Status::OK();
}

/// Rebuilds the uncompressed serialization (FDXCHNK1 or FDXCHNK3) of a
/// compressed chunk: decode every column, then copy the dictionary tail.
/// Fingerprints operate on this reconstruction, so they are
/// codec-independent.
Status ChunkedTable::ReconstructRawPayload(size_t index, const ChunkIo& io,
                                           std::string* out) const {
  const StoredChunk& chunk = chunks_[index];
  const size_t k = schema_.size();
  out->clear();
  AppendChunkHeader(out, io.widths, io.narrow, chunk.rows, io.dict_bytes);
  std::vector<int32_t> codes(chunk.rows);
  for (size_t c = 0; c < k; ++c) {
    FDX_RETURN_IF_ERROR(ReadSlice(index, io, c, codes.data()));
    AppendCodesAtWidth(io.widths[c], codes.data(), chunk.rows, out);
  }
  out->append(io.contents, io.dict_offset, io.dict_bytes);
  return Status::OK();
}

Status ChunkedTable::ReadColumnCodes(size_t col, CodeColumn* out) const {
  const ColumnDictionary& dict = dicts_[col];
  const int32_t dict_size = static_cast<int32_t>(dict.size());
  out->Reset(CodeWidthFor(dict.cardinality()), total_rows_);
  std::vector<int32_t> spilled;
  size_t row = 0;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const StoredChunk& chunk = chunks_[i];
    const int32_t* storage = nullptr;
    if (!chunk.codes.empty()) {
      storage = chunk.codes[col].data();
    } else {
      // Spilled: the column is one contiguous slice of the chunk file.
      FDX_ASSIGN_OR_RETURN(ChunkIo * io, GetChunkIo(i));
      spilled.resize(chunk.rows);
      FDX_RETURN_IF_ERROR(ReadSlice(i, *io, col, spilled.data()));
      storage = spilled.data();
    }
    // Storage codes to transform codes at the column's width; a chunk
    // written while the dictionary was smaller is widened here.
    Status status = Status::OK();
    DispatchCodeWidth(out->width(), [&](auto zero) {
      using T = decltype(zero);
      uint8_t* dst = out->mutable_data();
      for (size_t r = 0; r < chunk.rows; ++r) {
        const int32_t code = storage[r];
        if (code < EncodedTable::kNullCode || code >= dict_size) {
          status = Status::IOError("store: chunk '" + chunk.file +
                                   "' column " + std::to_string(col) +
                                   " has out-of-range code " +
                                   std::to_string(code));
          return;
        }
        StoreCode<T>(dst, row + r,
                     code < 0 ? static_cast<T>(~T{0})
                              : static_cast<T>(dict.transform_code(code)));
      }
    });
    FDX_RETURN_IF_ERROR(status);
    row += chunk.rows;
  }
  return Status::OK();
}

Result<Table> ChunkedTable::ReadChunkValues(size_t index) const {
  if (index >= chunks_.size()) {
    return Status::InvalidArgument("store: no chunk " + std::to_string(index));
  }
  const StoredChunk& chunk = chunks_[index];
  const size_t k = schema_.size();
  // Spilled chunks are fingerprint-verified and decoded to storage codes
  // first; resident ones already are storage codes.
  std::vector<std::vector<int32_t>> spilled;
  const std::vector<std::vector<int32_t>>* codes = &chunk.codes;
  if (chunk.codes.empty()) {
    FDX_ASSIGN_OR_RETURN(std::unique_ptr<ChunkIo> io, LoadChunk(index));
    spilled.assign(k, std::vector<int32_t>(chunk.rows));
    for (size_t c = 0; c < k; ++c) {
      FDX_RETURN_IF_ERROR(ReadSlice(index, *io, c, spilled[c].data()));
    }
    codes = &spilled;
  }
  Table out{schema_};
  std::vector<Value> row(k);
  for (size_t r = 0; r < chunk.rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      const int32_t storage = (*codes)[c][r];
      if (storage == EncodedTable::kNullCode) {
        row[c] = Value::Null();
        continue;
      }
      if (storage < 0 ||
          storage >= static_cast<int32_t>(dicts_[c].size())) {
        return Status::IOError("store: chunk " + std::to_string(index) +
                               " column " + std::to_string(c) +
                               " has out-of-range code " +
                               std::to_string(storage));
      }
      row[c] = dicts_[c].value(storage);
    }
    out.AppendRow(row);
  }
  return out;
}

Result<ChunkedTable> ChunkedTable::Open(std::string dir) {
  FDX_ASSIGN_OR_RETURN(std::string manifest_text,
                       ReadFileToString(dir + "/manifest.json"));
  FDX_ASSIGN_OR_RETURN(JsonValue root,
                       AsIOError(JsonValue::Parse(manifest_text),
                                 "store: manifest: "));
  if (!root.is_object()) {
    return Status::IOError("store: manifest must be an object");
  }
  FDX_ASSIGN_OR_RETURN(const uint64_t version, JsonCount(root, "version"));
  if (version != kManifestVersion) {
    return Status::IOError("store: unsupported manifest version " +
                           std::to_string(version));
  }
  const JsonValue* schema_json = root.Find("schema");
  if (schema_json == nullptr || !schema_json->is_array()) {
    return Status::IOError("store: manifest missing schema");
  }
  std::vector<std::string> names;
  names.reserve(schema_json->array().size());
  for (const JsonValue& name : schema_json->array()) {
    if (!name.is_string()) {
      return Status::IOError("store: schema names must be strings");
    }
    names.push_back(name.string_value());
  }

  if (const JsonValue* seal = root.Find("fingerprint")) {
    const std::string tail =
        kManifestSeal + (seal->is_string() ? seal->string_value() : "") +
        "\"}";
    const bool sealed =
        seal->is_string() && manifest_text.size() >= tail.size() &&
        manifest_text.compare(manifest_text.size() - tail.size(),
                              tail.size(), tail) == 0 &&
        FingerprintHexOf(manifest_text.data(),
                         manifest_text.size() - tail.size()) ==
            seal->string_value();
    if (!sealed) {
      return Status::IOError("store: manifest fingerprint mismatch (corrupt "
                             "store)");
    }
  }

  ChunkedTable table;
  table.schema_ = Schema(std::move(names));
  table.dir_ = std::move(dir);
  table.commit_ = root.StringOr("commit", "");
  table.dicts_.resize(table.schema_.size());
  table.committed_.assign(table.schema_.size(), 0);
  table.null_counts_.assign(table.schema_.size(), 0);
  table.codec_name_ = root.StringOr("codec", "none");
  FDX_ASSIGN_OR_RETURN(table.codec_,
                       AsIOError(FindChunkCodec(table.codec_name_), ""));
  const size_t k = table.schema_.size();

  const JsonValue* chunks_json = root.Find("chunks");
  if (chunks_json == nullptr || !chunks_json->is_array()) {
    return Status::IOError("store: manifest missing chunks");
  }
  for (const JsonValue& entry : chunks_json->array()) {
    if (!entry.is_object()) {
      return Status::IOError("store: chunk entries must be objects");
    }
    StoredChunk chunk;
    chunk.file = entry.StringOr("file", "");
    FDX_ASSIGN_OR_RETURN(chunk.rows, JsonCount(entry, "rows", SIZE_MAX));
    chunk.fingerprint_hex = entry.StringOr("fingerprint", "");
    if (chunk.file.empty() || chunk.rows == 0 ||
        chunk.fingerprint_hex.empty()) {
      return Status::IOError("store: malformed chunk entry in manifest");
    }
    table.chunks_.push_back(std::move(chunk));
  }

  // Replay each chunk in order: verify its fingerprint, extend the
  // dictionaries with its delta, and recount nulls from its codes.
  std::vector<int32_t> codes;
  for (size_t i = 0; i < table.chunks_.size(); ++i) {
    StoredChunk& chunk = table.chunks_[i];
    FDX_ASSIGN_OR_RETURN(std::unique_ptr<ChunkIo> io, table.LoadChunk(i));
    const std::string dict_json =
        io->contents.substr(io->dict_offset, io->dict_bytes);
    FDX_ASSIGN_OR_RETURN(
        JsonValue dict_root,
        AsIOError(JsonValue::Parse(dict_json),
                  "store: chunk '" + chunk.file + "' dictionary delta: "));
    const JsonValue* cols = dict_root.Find("cols");
    if (cols == nullptr || !cols->is_array() || cols->array().size() != k) {
      return Status::IOError("store: chunk '" + chunk.file +
                             "' dictionary delta is malformed");
    }
    for (size_t c = 0; c < k; ++c) {
      const JsonValue& col = cols->array()[c];
      FDX_ASSIGN_OR_RETURN(const uint64_t start, JsonCount(col, "start"));
      if (start != table.dicts_[c].size()) {
        return Status::IOError("store: chunk '" + chunk.file +
                               "' dictionary delta is out of sequence");
      }
      const JsonValue* values = col.Find("values");
      if (values == nullptr || !values->is_array()) {
        return Status::IOError("store: chunk '" + chunk.file +
                               "' dictionary delta missing values");
      }
      for (const JsonValue& cell : values->array()) {
        // Dictionary values are never null; a null cell is corruption.
        Result<Value> v = ParseCellJson(cell);
        if (!v.ok() || v->is_null()) {
          return Status::IOError(
              "store: chunk '" + chunk.file + "' dictionary delta: " +
              (v.ok() ? std::string("null cell") : v.status().message()));
        }
        // Re-intern through the normal path; a fresh value must land on
        // the exact storage code the delta implies.
        const size_t before = table.dicts_[c].size();
        table.dicts_[c].Intern(*v);
        if (table.dicts_[c].size() != before + 1) {
          return Status::IOError("store: chunk '" + chunk.file +
                                 "' dictionary delta repeats a value");
        }
      }
    }
    // Null counts come from the codes themselves (dictionary values are
    // never null).
    codes.resize(chunk.rows);
    for (size_t c = 0; c < k; ++c) {
      const size_t dict_size = table.dicts_[c].size();
      table.committed_[c] = dict_size;
      if (io->narrow && io->widths[c] != CodeWidthFor(dict_size)) {
        return Status::IOError("store: chunk '" + chunk.file + "' column " +
                               std::to_string(c) +
                               " width disagrees with its dictionary");
      }
      FDX_RETURN_IF_ERROR(table.ReadSlice(i, *io, c, codes.data()));
      for (const int32_t storage : codes) {
        if (storage == EncodedTable::kNullCode) {
          ++table.null_counts_[c];
        } else if (storage < 0 || static_cast<size_t>(storage) >= dict_size) {
          return Status::IOError("store: chunk '" + chunk.file +
                                 "' column " + std::to_string(c) +
                                 " has out-of-range code " +
                                 std::to_string(storage));
        }
      }
    }
    table.total_rows_ += chunk.rows;
  }

  FDX_ASSIGN_OR_RETURN(const uint64_t manifest_rows,
                       JsonCount(root, "total_rows"));
  if (manifest_rows != table.total_rows_) {
    return Status::IOError("store: manifest row count " +
                           std::to_string(manifest_rows) +
                           " disagrees with chunks (" +
                           std::to_string(table.total_rows_) + ")");
  }
  return table;
}

}  // namespace fdx
