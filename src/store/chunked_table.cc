#include "store/chunked_table.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "store/chunk_codec.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/mmap_file.h"

namespace fdx {
namespace {

constexpr char kChunkMagic[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '1'};
/// Compressed chunk: same u64 header, then a u64 per-column
/// compressed-size table, then the codec payloads, then the dict delta.
constexpr char kChunkMagicV2[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '2'};
constexpr size_t kChunkHeaderBytes = 8 + 3 * 8;  // magic + rows/cols/dict_bytes
constexpr int kManifestVersion = 1;

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

void AppendI32(std::string* out, int32_t v) {
  const uint32_t u = static_cast<uint32_t>(v);
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(u >> (8 * i)));
}

int32_t ReadI32(const char* p) {
  uint32_t u = 0;
  for (int i = 0; i < 4; ++i) {
    u |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return static_cast<int32_t>(u);
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

/// Exact-double text, round-trippable (same codec as the service
/// snapshots: %.17g survives strtod bit-exactly).
std::string ExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Type-tagged cell: null | ["i",text] | ["d",text] | ["s",text].
void WriteCellJson(JsonWriter* json, const Value& cell) {
  switch (cell.type()) {
    case ValueType::kNull:
      json->Null();
      return;
    case ValueType::kInt:
      json->BeginArray();
      json->String("i");
      json->String(std::to_string(cell.AsInt()));
      json->EndArray();
      return;
    case ValueType::kDouble:
      json->BeginArray();
      json->String("d");
      json->String(ExactDouble(cell.AsDouble()));
      json->EndArray();
      return;
    case ValueType::kString:
      json->BeginArray();
      json->String("s");
      json->String(cell.AsString());
      json->EndArray();
      return;
  }
}

Result<Value> ParseCellJson(const JsonValue& cell) {
  if (!cell.is_array() || cell.array().size() != 2 ||
      !cell.array()[0].is_string() || !cell.array()[1].is_string()) {
    return Status::IOError("store: dictionary cell must be a [tag, text] pair");
  }
  const std::string& tag = cell.array()[0].string_value();
  const std::string& text = cell.array()[1].string_value();
  errno = 0;
  char* end = nullptr;
  if (tag == "i") {
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::IOError("store: malformed int cell '" + text + "'");
    }
    return Value(static_cast<int64_t>(parsed));
  }
  if (tag == "d") {
    const double parsed = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::IOError("store: malformed double cell '" + text + "'");
    }
    return Value(parsed);
  }
  if (tag == "s") return Value(text);
  return Status::IOError("store: unknown cell tag '" + tag + "'");
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

/// Cached per-chunk read state. Established once under the table's I/O
/// mutex; immutable afterwards, so concurrent column reads share it
/// without further locking (mapped reads and pread are both safe).
struct ChunkedTable::ChunkIo {
  MmapFile map;        ///< valid when use_mmap
  int fd = -1;         ///< pread fallback, kept open across column reads
  bool use_mmap = false;
  bool compressed = false;  ///< file is FDXCHNK2
  uint64_t file_size = 0;
  uint64_t dict_offset = 0;
  uint64_t dict_bytes = 0;
  /// Per-column payload byte ranges, parsed once from the header (and,
  /// for compressed chunks, the size table) — column reads never touch
  /// header state again.
  std::vector<uint64_t> col_offsets;
  std::vector<uint64_t> col_sizes;

  ChunkIo() = default;
  ChunkIo(const ChunkIo&) = delete;
  ChunkIo& operator=(const ChunkIo&) = delete;
  ~ChunkIo() {
    if (fd >= 0) ::close(fd);
  }

  /// Copies `[offset, offset+len)` of the chunk file into `dst`, from
  /// the map or via pread on the cached fd.
  Status ReadAt(uint64_t offset, size_t len, char* dst,
                const std::string& path) const {
    if (offset + len > file_size) {
      return Status::IOError("store: chunk '" + path +
                             "' is shorter than its header promises");
    }
    if (use_mmap) {
      std::memcpy(dst, map.data() + offset, len);
      return Status::OK();
    }
    size_t done = 0;
    while (done < len) {
      const ssize_t got = ::pread(fd, dst + done, len - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("store: cannot read chunk '" + path +
                               "': " + std::strerror(errno));
      }
      if (got == 0) {
        return Status::IOError("store: chunk '" + path +
                               "' truncated mid-read");
      }
      done += static_cast<size_t>(got);
    }
    return Status::OK();
  }

  /// Drops the page-cache residency of a byte range (mmap mode only) so
  /// a streaming scan never accumulates mapped pages.
  void DropRange(uint64_t offset, size_t len) const {
    if (use_mmap) map.AdviseDontNeed(offset, len);
  }
};

ChunkedTable::ChunkedTable() = default;
ChunkedTable::~ChunkedTable() = default;
ChunkedTable::ChunkedTable(ChunkedTable&&) noexcept = default;
ChunkedTable& ChunkedTable::operator=(ChunkedTable&&) noexcept = default;

StoreIo DefaultStoreIo() {
  const char* env = std::getenv("FDX_STORE_IO");
  if (env != nullptr) {
    if (std::strcmp(env, "read") == 0) return StoreIo::kRead;
    if (std::strcmp(env, "mmap") == 0) return StoreIo::kMmap;
  }
  return StoreIo::kMmap;
}

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
  table.io_mode_ = DefaultStoreIo();
  if (!table.dir_.empty()) {
    FDX_RETURN_IF_ERROR(EnsureDirectory(table.dir_));
    FDX_RETURN_IF_ERROR(table.WriteManifest());
  }
  return table;
}

std::string ChunkedTable::SerializeChunk(
    const StoredChunk& chunk, const std::vector<size_t>& dict_starts) const {
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
  out.reserve(kChunkHeaderBytes + chunk.rows * k * 4 + dict_json.size());
  out.append(kChunkMagic, sizeof(kChunkMagic));
  AppendU64(&out, chunk.rows);
  AppendU64(&out, k);
  AppendU64(&out, dict_json.size());
  for (size_t c = 0; c < k; ++c) {
    for (int32_t code : chunk.codes[c]) AppendI32(&out, code);
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
  json.EndObject();
  return json.TakeString();
}

Status ChunkedTable::WriteManifest() const {
  return WriteFileAtomic(dir_ + "/manifest.json", EncodeManifest());
}

Status ChunkedTable::AppendBatch(const Table& batch) {
  const size_t k = schema_.size();
  if (batch.num_columns() != k) {
    return Status::InvalidArgument(
        "store: batch has " + std::to_string(batch.num_columns()) +
        " columns; expected " + std::to_string(k));
  }
  if (batch.num_rows() == 0) {
    return Status::InvalidArgument("store: batch has no rows");
  }
  std::vector<std::vector<int32_t>> codes(k);
  for (size_t c = 0; c < k; ++c) {
    codes[c].reserve(batch.num_rows());
    for (const Value& v : batch.column(c)) {
      codes[c].push_back(v.is_null() ? EncodedTable::kNullCode
                                     : dicts_[c].Intern(v));
    }
  }
  return AppendChunk(std::move(codes), batch.num_rows());
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
        return AppendChunk(std::move(codes), rows);
      });
}

Status ChunkedTable::AppendChunk(std::vector<std::vector<int32_t>> codes,
                                 size_t rows) {
  const size_t k = schema_.size();
  const std::vector<size_t> dict_starts = committed_;
  for (size_t c = 0; c < k; ++c) {
    for (int32_t code : codes[c]) {
      if (code == EncodedTable::kNullCode) {
        ++null_counts_[c];
      } else if (static_cast<size_t>(code) >= committed_[c]) {
        committed_[c] = static_cast<size_t>(code) + 1;
      }
    }
  }
  StoredChunk chunk;
  chunk.rows = rows;
  chunk.codes = std::move(codes);

  // The fingerprint always covers the uncompressed serialization, so
  // raw and compressed stores of the same data fingerprint identically.
  const std::string payload = SerializeChunk(chunk, dict_starts);
  chunk.fingerprint_hex = FingerprintHexOf(payload);
  if (!dir_.empty()) {
    chunk.file = ChunkFileName(chunks_.size());
    if (codec_ != nullptr) {
      // Re-frame as FDXCHNK2: header, per-column compressed sizes,
      // codec payloads, then the same dictionary delta tail.
      const size_t dict_bytes =
          payload.size() - kChunkHeaderBytes - chunk.rows * k * 4;
      std::string packed;
      packed.append(kChunkMagicV2, sizeof(kChunkMagicV2));
      AppendU64(&packed, chunk.rows);
      AppendU64(&packed, k);
      AppendU64(&packed, dict_bytes);
      std::string columns;
      for (size_t c = 0; c < k; ++c) {
        const size_t before = columns.size();
        codec_->EncodeColumn(chunk.codes[c].data(), chunk.rows, &columns);
        AppendU64(&packed, columns.size() - before);
      }
      packed += columns;
      packed.append(payload, payload.size() - dict_bytes, dict_bytes);
      FDX_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + chunk.file, packed));
    } else {
      FDX_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + chunk.file, payload));
    }
    chunk.codes.clear();  // durable now; drop the resident copy
  }
  total_rows_ += chunk.rows;
  chunks_.push_back(std::move(chunk));
  if (!dir_.empty()) {
    // Manifest is the commit point: a crash between the chunk write and
    // here leaves an orphan file the stale manifest never references.
    FDX_RETURN_IF_ERROR(WriteManifest());
  }
  return Status::OK();
}

Result<ChunkedTable::ChunkIo*> ChunkedTable::GetChunkIo(size_t index) const {
  const StoredChunk& chunk = chunks_[index];
  std::lock_guard<std::mutex> lock(*io_mu_);
  if (chunk.io != nullptr) return chunk.io.get();

  const std::string path = dir_ + "/" + chunk.file;
  auto io = std::make_unique<ChunkIo>();
  if (io_mode_ == StoreIo::kMmap && !FaultTriggered(kFaultStoreMmap)) {
    Result<MmapFile> mapped = MmapFile::Open(path);
    if (mapped.ok()) {
      io->map = std::move(mapped).value();
      io->use_mmap = true;
      io->file_size = io->map.size();
    } else {
      ++mmap_fallbacks_;
    }
  } else if (io_mode_ == StoreIo::kMmap) {
    ++mmap_fallbacks_;  // fault point counts like a real map failure
  }
  if (!io->use_mmap) {
    io->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (io->fd < 0) {
      return Status::IOError("store: cannot open chunk '" + path +
                             "': " + std::strerror(errno));
    }
    const off_t size = ::lseek(io->fd, 0, SEEK_END);
    if (size < 0) {
      return Status::IOError("store: cannot stat chunk '" + path +
                             "': " + std::strerror(errno));
    }
    io->file_size = static_cast<uint64_t>(size);
  }

  // Parse the header once; every later column read goes straight to its
  // precomputed byte range.
  char header[kChunkHeaderBytes];
  if (io->file_size < kChunkHeaderBytes) {
    return Status::IOError("store: chunk '" + path + "' has a bad header");
  }
  FDX_RETURN_IF_ERROR(io->ReadAt(0, kChunkHeaderBytes, header, path));
  const bool v1 = std::memcmp(header, kChunkMagic, sizeof(kChunkMagic)) == 0;
  const bool v2 =
      std::memcmp(header, kChunkMagicV2, sizeof(kChunkMagicV2)) == 0;
  if (!v1 && !v2) {
    return Status::IOError("store: chunk '" + path + "' has a bad header");
  }
  const uint64_t rows = ReadU64(header + 8);
  const uint64_t cols = ReadU64(header + 16);
  io->dict_bytes = ReadU64(header + 24);
  const size_t k = schema_.size();
  if (rows != chunk.rows || cols != k) {
    return Status::IOError("store: chunk '" + path +
                           "' shape disagrees with the manifest");
  }
  io->compressed = v2;
  io->col_offsets.resize(k);
  io->col_sizes.resize(k);
  if (v1) {
    for (size_t c = 0; c < k; ++c) {
      io->col_offsets[c] = kChunkHeaderBytes + c * rows * 4;
      io->col_sizes[c] = rows * 4;
    }
    io->dict_offset = kChunkHeaderBytes + rows * k * 4;
  } else {
    if (codec_ == nullptr) {
      return Status::IOError("store: chunk '" + path +
                             "' is compressed but the manifest names no "
                             "codec");
    }
    std::string table(k * 8, '\0');
    if (io->file_size < kChunkHeaderBytes + k * 8) {
      return Status::IOError("store: chunk '" + path + "' has a bad header");
    }
    FDX_RETURN_IF_ERROR(
        io->ReadAt(kChunkHeaderBytes, k * 8, table.data(), path));
    uint64_t offset = kChunkHeaderBytes + k * 8;
    for (size_t c = 0; c < k; ++c) {
      io->col_offsets[c] = offset;
      io->col_sizes[c] = ReadU64(table.data() + c * 8);
      offset += io->col_sizes[c];
    }
    io->dict_offset = offset;
  }
  if (io->file_size != io->dict_offset + io->dict_bytes) {
    return Status::IOError("store: chunk '" + path +
                           "' shape disagrees with the manifest");
  }

  // First-touch verification (mmap mode): fingerprint the uncompressed
  // serialization before trusting any mapped bytes, then drop the pages
  // the check touched. The pread fallback keeps the original contract —
  // full verification on ReadChunkValues/Open, range checks on column
  // reads.
  if (io->use_mmap) {
    std::string actual;
    if (io->compressed) {
      std::string v1_payload;
      FDX_RETURN_IF_ERROR(ReconstructRawPayload(index, *io, &v1_payload));
      actual = FingerprintHexOf(v1_payload);
    } else {
      actual = FingerprintHexOf(io->map.data(), io->map.size());
    }
    if (actual != chunk.fingerprint_hex) {
      return Status::IOError("store: chunk '" + path +
                             "' fingerprint mismatch (corrupt store)");
    }
    io->map.AdviseDontNeed(0, io->map.size());
  }

  chunk.io = std::move(io);
  return chunk.io.get();
}

/// Rebuilds the uncompressed (FDXCHNK1) serialization of a compressed
/// chunk from its established I/O state: decode every column, then copy
/// the dictionary tail. Fingerprints and the replay path both operate
/// on this reconstruction, so they are codec-independent.
Status ChunkedTable::ReconstructRawPayload(size_t index, const ChunkIo& io,
                                           std::string* out) const {
  const StoredChunk& chunk = chunks_[index];
  const size_t k = schema_.size();
  out->clear();
  out->reserve(kChunkHeaderBytes + chunk.rows * k * 4 +
               static_cast<size_t>(io.dict_bytes));
  out->append(kChunkMagic, sizeof(kChunkMagic));
  AppendU64(out, chunk.rows);
  AppendU64(out, k);
  AppendU64(out, io.dict_bytes);
  std::vector<int32_t> codes(chunk.rows);
  std::string column;
  for (size_t c = 0; c < k; ++c) {
    column.resize(io.col_sizes[c]);
    FDX_RETURN_IF_ERROR(io.ReadAt(io.col_offsets[c], io.col_sizes[c],
                                  column.data(), dir_ + "/" + chunk.file));
    FDX_RETURN_IF_ERROR(DecodeCompressedColumn(*codec_, column.data(),
                                               column.size(), chunk.rows,
                                               codes.data(), chunk.file));
    for (int32_t code : codes) AppendI32(out, code);
  }
  std::string dict(io.dict_bytes, '\0');
  FDX_RETURN_IF_ERROR(io.ReadAt(io.dict_offset, io.dict_bytes, dict.data(),
                                dir_ + "/" + chunk.file));
  *out += dict;
  return Status::OK();
}

Status ChunkedTable::LoadChunkPayload(size_t index,
                                      std::string* contents) const {
  const StoredChunk& chunk = chunks_[index];
  const std::string path = dir_ + "/" + chunk.file;
  FDX_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(path));
  if (raw.size() >= sizeof(kChunkMagicV2) &&
      std::memcmp(raw.data(), kChunkMagicV2, sizeof(kChunkMagicV2)) == 0) {
    // Compressed: rebuild the uncompressed serialization, which is what
    // the fingerprint covers and what the callers parse.
    FDX_ASSIGN_OR_RETURN(ChunkIo * io, GetChunkIo(index));
    FDX_RETURN_IF_ERROR(ReconstructRawPayload(index, *io, contents));
  } else {
    *contents = std::move(raw);
  }
  if (FingerprintHexOf(*contents) != chunk.fingerprint_hex) {
    return Status::IOError("store: chunk '" + path +
                           "' fingerprint mismatch (corrupt store)");
  }
  const size_t k = schema_.size();
  if (contents->size() < kChunkHeaderBytes ||
      std::memcmp(contents->data(), kChunkMagic, sizeof(kChunkMagic)) != 0) {
    return Status::IOError("store: chunk '" + path + "' has a bad header");
  }
  const uint64_t rows = ReadU64(contents->data() + 8);
  const uint64_t cols = ReadU64(contents->data() + 16);
  const uint64_t dict_bytes = ReadU64(contents->data() + 24);
  if (rows != chunk.rows || cols != k ||
      contents->size() != kChunkHeaderBytes + rows * cols * 4 + dict_bytes) {
    return Status::IOError("store: chunk '" + path +
                           "' shape disagrees with the manifest");
  }
  return Status::OK();
}

Status ChunkedTable::ReadSpilledColumn(size_t index, size_t col,
                                       std::vector<int32_t>* codes) const {
  const StoredChunk& chunk = chunks_[index];
  FDX_ASSIGN_OR_RETURN(ChunkIo * io, GetChunkIo(index));
  codes->resize(chunk.rows);
  if (io->compressed) {
    std::string column(io->col_sizes[col], '\0');
    FDX_RETURN_IF_ERROR(io->ReadAt(io->col_offsets[col], io->col_sizes[col],
                                   column.data(), dir_ + "/" + chunk.file));
    FDX_RETURN_IF_ERROR(DecodeCompressedColumn(*codec_, column.data(),
                                               column.size(), chunk.rows,
                                               codes->data(), chunk.file));
  } else if (io->use_mmap) {
    const char* slice = io->map.data() + io->col_offsets[col];
    for (size_t r = 0; r < chunk.rows; ++r) {
      (*codes)[r] = ReadI32(slice + r * 4);
    }
  } else {
    std::string slice(io->col_sizes[col], '\0');
    FDX_RETURN_IF_ERROR(io->ReadAt(io->col_offsets[col], io->col_sizes[col],
                                   slice.data(), dir_ + "/" + chunk.file));
    for (size_t r = 0; r < chunk.rows; ++r) {
      (*codes)[r] = ReadI32(slice.data() + r * 4);
    }
  }
  // The slice has been copied out as codes; its pages are dead weight.
  io->DropRange(io->col_offsets[col], io->col_sizes[col]);
  return Status::OK();
}

Status ChunkedTable::ReadColumnCodes(size_t col,
                                     std::vector<int32_t>* out) const {
  const ColumnDictionary& dict = dicts_[col];
  const int32_t dict_size = static_cast<int32_t>(dict.size());
  out->clear();
  out->reserve(total_rows_);
  std::vector<int32_t> storage_codes;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const StoredChunk& chunk = chunks_[i];
    if (!chunk.codes.empty()) {
      for (int32_t storage : chunk.codes[col]) {
        out->push_back(storage < 0 ? EncodedTable::kNullCode
                                   : dict.transform_code(storage));
      }
      continue;
    }
    // Spilled: the column is one contiguous slice of the chunk file.
    FDX_RETURN_IF_ERROR(ReadSpilledColumn(i, col, &storage_codes));
    for (size_t r = 0; r < chunk.rows; ++r) {
      const int32_t storage = storage_codes[r];
      if (storage < EncodedTable::kNullCode || storage >= dict_size) {
        return Status::IOError("store: chunk '" + chunk.file +
                               "' column " + std::to_string(col) +
                               " has out-of-range code " +
                               std::to_string(storage));
      }
      out->push_back(storage < 0 ? EncodedTable::kNullCode
                                 : dict.transform_code(storage));
    }
  }
  return Status::OK();
}

Result<Table> ChunkedTable::ReadChunkValues(size_t index) const {
  if (index >= chunks_.size()) {
    return Status::InvalidArgument("store: no chunk " + std::to_string(index));
  }
  const StoredChunk& chunk = chunks_[index];
  const size_t k = schema_.size();
  Table out{schema_};
  std::vector<Value> row(k);

  const auto decode_cell = [&](size_t col, int32_t storage) -> Result<Value> {
    if (storage == EncodedTable::kNullCode) return Value::Null();
    if (storage < 0 ||
        storage >= static_cast<int32_t>(dicts_[col].size())) {
      return Status::IOError("store: chunk " + std::to_string(index) +
                             " column " + std::to_string(col) +
                             " has out-of-range code " +
                             std::to_string(storage));
    }
    return dicts_[col].value(storage);
  };

  if (!chunk.codes.empty()) {
    for (size_t r = 0; r < chunk.rows; ++r) {
      for (size_t c = 0; c < k; ++c) {
        FDX_ASSIGN_OR_RETURN(row[c], decode_cell(c, chunk.codes[c][r]));
      }
      out.AppendRow(row);
    }
    return out;
  }
  std::string payload;
  FDX_RETURN_IF_ERROR(LoadChunkPayload(index, &payload));
  const char* codes = payload.data() + kChunkHeaderBytes;
  for (size_t r = 0; r < chunk.rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      const int32_t storage = ReadI32(codes + (c * chunk.rows + r) * 4);
      FDX_ASSIGN_OR_RETURN(row[c], decode_cell(c, storage));
    }
    out.AppendRow(row);
  }
  return out;
}

uint64_t ChunkedTable::MappedResidentBytes() const {
  std::lock_guard<std::mutex> lock(*io_mu_);
  uint64_t total = 0;
  for (const StoredChunk& chunk : chunks_) {
    if (chunk.io != nullptr && chunk.io->use_mmap) {
      total += chunk.io->map.ResidentBytes();
    }
  }
  return total;
}

uint64_t ChunkedTable::mmap_fallbacks() const {
  std::lock_guard<std::mutex> lock(*io_mu_);
  return mmap_fallbacks_;
}

Result<ChunkedTable> ChunkedTable::Open(std::string dir) {
  FDX_ASSIGN_OR_RETURN(std::string manifest_text,
                       ReadFileToString(dir + "/manifest.json"));
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(manifest_text));
  if (!root.is_object()) {
    return Status::IOError("store: manifest must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
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

  ChunkedTable table;
  table.schema_ = Schema(std::move(names));
  table.dir_ = std::move(dir);
  table.dicts_.resize(table.schema_.size());
  table.committed_.assign(table.schema_.size(), 0);
  table.null_counts_.assign(table.schema_.size(), 0);
  table.io_mode_ = DefaultStoreIo();
  table.codec_name_ = root.StringOr("codec", "none");
  FDX_ASSIGN_OR_RETURN(table.codec_, FindChunkCodec(table.codec_name_));
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
    chunk.rows = static_cast<size_t>(entry.NumberOr("rows", 0));
    chunk.fingerprint_hex = entry.StringOr("fingerprint", "");
    if (chunk.file.empty() || chunk.rows == 0 ||
        chunk.fingerprint_hex.empty()) {
      return Status::IOError("store: malformed chunk entry in manifest");
    }
    table.chunks_.push_back(std::move(chunk));
  }

  // Replay each chunk in order: verify its fingerprint, extend the
  // dictionaries with its delta, and recount nulls from its codes.
  for (size_t i = 0; i < table.chunks_.size(); ++i) {
    StoredChunk& chunk = table.chunks_[i];
    std::string payload;
    FDX_RETURN_IF_ERROR(table.LoadChunkPayload(i, &payload));
    const uint64_t dict_bytes = ReadU64(payload.data() + 24);
    const size_t codes_end = kChunkHeaderBytes + chunk.rows * k * 4;
    const std::string dict_json = payload.substr(codes_end, dict_bytes);
    FDX_ASSIGN_OR_RETURN(JsonValue dict_root, JsonValue::Parse(dict_json));
    const JsonValue* cols = dict_root.Find("cols");
    if (cols == nullptr || !cols->is_array() || cols->array().size() != k) {
      return Status::IOError("store: chunk '" + chunk.file +
                             "' dictionary delta is malformed");
    }
    for (size_t c = 0; c < k; ++c) {
      const JsonValue& col = cols->array()[c];
      const size_t start = static_cast<size_t>(col.NumberOr("start", 0));
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
        FDX_ASSIGN_OR_RETURN(Value v, ParseCellJson(cell));
        // Re-intern through the normal path; a fresh value must land on
        // the exact storage code the delta implies.
        const size_t before = table.dicts_[c].size();
        table.dicts_[c].Intern(v);
        if (table.dicts_[c].size() != before + 1) {
          return Status::IOError("store: chunk '" + chunk.file +
                                 "' dictionary delta repeats a value");
        }
      }
    }
    // Null counts come from the codes themselves (dictionary values are
    // never null).
    const char* codes = payload.data() + kChunkHeaderBytes;
    for (size_t c = 0; c < k; ++c) {
      table.committed_[c] = table.dicts_[c].size();
      const int32_t dict_size =
          static_cast<int32_t>(table.dicts_[c].size());
      for (size_t r = 0; r < chunk.rows; ++r) {
        const int32_t storage = ReadI32(codes + (c * chunk.rows + r) * 4);
        if (storage == EncodedTable::kNullCode) {
          ++table.null_counts_[c];
        } else if (storage < 0 || storage >= dict_size) {
          return Status::IOError("store: chunk '" + chunk.file +
                                 "' column " + std::to_string(c) +
                                 " has out-of-range code " +
                                 std::to_string(storage));
        }
      }
    }
    table.total_rows_ += chunk.rows;
  }

  const uint64_t manifest_rows =
      static_cast<uint64_t>(root.NumberOr("total_rows", 0));
  if (manifest_rows != table.total_rows_) {
    return Status::IOError("store: manifest row count " +
                           std::to_string(manifest_rows) +
                           " disagrees with chunks (" +
                           std::to_string(table.total_rows_) + ")");
  }
  return table;
}

}  // namespace fdx
