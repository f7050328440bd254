#ifndef FDX_STORE_CHUNKED_TABLE_H_
#define FDX_STORE_CHUNKED_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/code_column.h"
#include "data/csv_reader.h"
#include "data/dictionary.h"
#include "data/table.h"
#include "util/status.h"

namespace fdx {

class ChunkCodec;

/// Out-of-core columnar table: rows arrive in batches, each batch is
/// dictionary-encoded against an *incremental* dictionary (codes are
/// stable across chunks — appending never renumbers anything) and kept
/// as one immutable chunk. With a store directory, chunk payloads spill
/// to disk through the same write-temp-fsync-rename pattern as the
/// service snapshots and only the dictionaries stay resident, so the
/// table itself can be far larger than RAM; without one, chunks stay in
/// memory (same code paths, useful for tests and small inputs).
///
/// Each column's dictionary is a ColumnDictionary (data/dictionary.h),
/// the same type and rule as EncodedTable::Encode and the CSV reader,
/// with its two code spaces:
///
///  * storage codes — exact values. int 3, double 3.0, and string "3"
///    get distinct codes, so chunks round-trip losslessly through
///    ReadChunkValues (the service replays them through fingerprinted
///    appends, which must reproduce the original bytes).
///  * transform codes — the EncodedTable contract. ReadColumnCodes emits
///    these, which is what makes the streaming transform bit-identical
///    to EncodedTable::Encode of the concatenated table.
///
/// Rows arrive either as Tables (AppendBatch) or as the CSV reader's
/// code batches (AppendCsv), which intern straight into the store's
/// dictionaries with no Value per cell. Both write the same bytes.
///
/// Durable layout under `dir`:
///
///   manifest.json    — schema, total rows, codec, per-chunk {file,
///                      rows, fingerprint}, the owner's commit string,
///                      and last a fingerprint of the bytes before it;
///                      rewritten atomically per append (O(#chunks),
///                      chunk payloads immutable). Its rename is the
///                      append's commit point.
///   chunk-NNNNNN.bin — raw format: magic FDXCHNK3; u64 rows, cols,
///                      dict_bytes; one width byte per column; each
///                      column's storage codes at its width (one column =
///                      one contiguous slice); then a JSON dictionary
///                      *delta* — only the values first seen in this
///                      chunk. A column's width is the narrowest of 1, 2
///                      or 4 bytes that holds the dictionary committed at
///                      that chunk plus the null code (all-ones; see
///                      data/code_column.h). Compressed format (codec !=
///                      none): magic FDXCHNK4, the same header and width
///                      bytes, a u64 per-column compressed-size table,
///                      the per-column codec payloads, then the
///                      dictionary delta. Fingerprints always cover the
///                      *uncompressed* serialization, so raw and
///                      compressed stores of the same data fingerprint
///                      identically. Chunks written before code widths
///                      existed (FDXCHNK1 raw int32, FDXCHNK2 compressed
///                      over it) are still read, bit for bit; a column
///                      whose dictionary later outgrew a chunk's width is
///                      widened on read.
///
/// Open() verifies the manifest's fingerprint (manifests written before
/// it existed have none and open as before), replays the dictionary
/// deltas in chunk order and verifies every chunk's fingerprint, so a
/// reopened store either matches the writer's state exactly or fails
/// loudly.
///
/// Spilled chunks are read back with plain reads, never mapped.
/// ReadChunkValues reads and verifies the whole chunk file each call.
/// ReadColumnCodes verifies each chunk's fingerprint once per
/// ChunkedTable, on its first touch, before any of its codes is trusted
/// (a store this process wrote included), and keeps only the chunk's
/// parsed layout; every column read then opens the file, preads the
/// column's slice and closes it, so the store holds no file descriptor
/// between reads.
///
/// Appends are single-writer (callers serialize them; the service wraps
/// a store in its per-session mutex). Reads — ReadColumnCodes and
/// ReadChunkValues — are safe to call concurrently with each other (the
/// wave-parallel streaming transform decodes columns from worker
/// threads); the per-chunk layouts they share are created under an
/// internal mutex.
class ChunkedTable {
 public:
  // Defined out of line: StoredChunk holds a unique_ptr to the
  // incomplete ChunkIo type.
  ChunkedTable();
  ~ChunkedTable();
  ChunkedTable(ChunkedTable&&) noexcept;
  ChunkedTable& operator=(ChunkedTable&&) noexcept;
  ChunkedTable(const ChunkedTable&) = delete;
  ChunkedTable& operator=(const ChunkedTable&) = delete;

  /// New empty store. `dir` empty keeps chunks in memory; otherwise the
  /// directory is created and an empty manifest written immediately.
  /// `codec` names the chunk-payload compression ("" or "none" stores
  /// raw, "varint" delta-compresses dictionary codes); unknown names
  /// are an error.
  static Result<ChunkedTable> Create(const Schema& schema, std::string dir,
                                     const std::string& codec = "");

  /// Reopens a spilled store, replaying dictionary deltas and verifying
  /// every chunk fingerprint against the manifest. The codec is read
  /// from the manifest.
  static Result<ChunkedTable> Open(std::string dir);

  /// Encodes `batch` as one new chunk and records `commit` as the
  /// store's commit string (an owner's fingerprint of what the store
  /// holds; fdxd passes its session content fingerprint). Column count
  /// must match the schema; zero-row batches are rejected. With a store
  /// dir the chunk file and updated manifest are durable before this
  /// returns, and the chunk's codes are dropped from memory — append
  /// I/O is O(chunk) plus the O(#chunks) manifest rewrite. All or
  /// nothing: on any error (a failed write included) the store, its
  /// dictionaries and its files are as if the batch never came.
  Status AppendBatch(const Table& batch, const std::string& commit = "");

  /// Appends every remaining row of `reader` as chunks of `chunk_rows`
  /// rows (0 = one chunk), interning the reader's code batches straight
  /// into the store's dictionaries. Chunk files and manifest are
  /// byte-identical to AppendBatch of the same rows decoded into Tables
  /// of `chunk_rows` rows. The reader's schema must have the store's
  /// column count. An error voids the store: the reader interns a whole
  /// window at a time, so the dictionaries may already hold values of
  /// rows that were never appended (a bad line's window, or the rest of
  /// a window after a failed chunk write). Cardinality(), DictionarySize()
  /// and the next chunk's dictionary delta would count them; discard the
  /// store instead of appending to it or reading from it.
  Status AppendCsv(CsvReader* reader, size_t chunk_rows);

  const Schema& schema() const { return schema_; }
  const std::string& dir() const { return dir_; }
  bool spilled() const { return !dir_.empty(); }
  /// Codec name as recorded in the manifest ("none" when raw).
  const std::string& codec() const { return codec_name_; }
  /// The commit string of the last append ("" for none, or for a store
  /// written before manifests carried one).
  const std::string& commit() const { return commit_; }
  /// Always 0: chunks are never mapped, so no read falls back.
  /// Kept only because perfbench's pb_trace still reports it as
  /// `store.mmap_fallbacks`; it goes when that metric does.
  uint64_t mmap_fallbacks() const { return 0; }
  size_t num_rows() const { return total_rows_; }
  size_t num_columns() const { return schema_.size(); }
  size_t num_chunks() const { return chunks_.size(); }
  size_t ChunkRowCount(size_t chunk) const { return chunks_[chunk].rows; }
  const std::string& ChunkFingerprintHex(size_t chunk) const {
    return chunks_[chunk].fingerprint_hex;
  }

  /// Transform-code cardinality of a column (numerics merged), i.e.
  /// exactly EncodedTable::Encode(concatenated table).Cardinality(col).
  size_t Cardinality(size_t col) const { return dicts_[col].cardinality(); }
  size_t NullCount(size_t col) const { return null_counts_[col]; }
  /// Distinct exact values seen in a column (storage codes).
  size_t DictionarySize(size_t col) const { return dicts_[col].size(); }

  /// Streams one column's transform codes across all chunks into `out`,
  /// at the width its transform cardinality needs (CodeWidthFor of
  /// Cardinality(col); nulls are that width's all-ones code) — the
  /// streaming transform's input. A spilled chunk costs one pread of the
  /// column's contiguous payload, plus its fingerprint check on first
  /// touch. Thread-safe against concurrent reads.
  Status ReadColumnCodes(size_t col, CodeColumn* out) const;

  /// Exact value round-trip of one chunk (the service's replay path).
  /// Spilled chunks are fingerprint-verified before decoding, so a
  /// corrupted store surfaces as kIOError here rather than as silently
  /// different data.
  Result<Table> ReadChunkValues(size_t chunk) const;

 private:
  /// A chunk file's parsed layout (per-column code widths and payload
  /// byte ranges) and, while loaded, its bytes.
  struct ChunkIo;

  struct StoredChunk {
    size_t rows = 0;
    std::string file;  ///< basename under dir_; empty in memory mode
    std::string fingerprint_hex;
    /// Storage codes per column; cleared once spilled.
    std::vector<std::vector<int32_t>> codes;
    /// Lazily created, guarded by io_mu_ during creation.
    mutable std::unique_ptr<ChunkIo> io;
  };

  /// Appends one chunk of storage codes, all or nothing. The values
  /// first seen in it are the storage codes from the committed
  /// dictionary size up to its largest code (codes count up in order of
  /// first appearance); they become the chunk's dictionary delta.
  Status AppendChunk(std::vector<std::vector<int32_t>> codes, size_t rows,
                     std::string commit);
  /// The chunk's uncompressed (FDXCHNK3) serialization at `widths`.
  std::string SerializeChunk(const StoredChunk& chunk,
                             const std::vector<size_t>& dict_starts,
                             const std::vector<uint8_t>& widths) const;
  std::string EncodeManifest() const;
  Status WriteManifest() const;
  /// The cached layout of a spilled chunk: on first touch the chunk is
  /// loaded and verified (LoadChunk), then its bytes are dropped.
  Result<ChunkIo*> GetChunkIo(size_t chunk) const;
  /// The whole chunk file read into memory, parsed and verified; not
  /// cached (Open and ReadChunkValues read each chunk once).
  Result<std::unique_ptr<ChunkIo>> LoadChunk(size_t chunk) const;
  /// Checks the fingerprint of a loaded chunk's uncompressed
  /// serialization.
  Status VerifyChunk(size_t chunk, const ChunkIo& io) const;
  /// Decodes column `col` of a spilled chunk into `out[0..rows)` as
  /// storage codes, from the loaded bytes or by one pread of the slice:
  /// every read of a chunk payload goes through here.
  Status ReadSlice(size_t chunk, const ChunkIo& io, size_t col,
                   int32_t* out) const;
  /// Rebuilds a loaded compressed chunk's uncompressed serialization.
  Status ReconstructRawPayload(size_t chunk, const ChunkIo& io,
                               std::string* out) const;

  Schema schema_;
  std::string dir_;
  std::string codec_name_ = "none";
  const ChunkCodec* codec_ = nullptr;  ///< nullptr when raw
  std::string commit_;
  size_t total_rows_ = 0;
  std::vector<ColumnDictionary> dicts_;
  /// Per column: dictionary entries already written in chunk deltas.
  /// AppendCsv interns a whole reader window before cutting it into
  /// chunks, so the dictionary may run ahead of this until the read ends.
  std::vector<size_t> committed_;
  std::vector<size_t> null_counts_;
  std::vector<StoredChunk> chunks_;
  /// Guards lazy ChunkIo creation (the table is movable, hence the
  /// indirection).
  std::unique_ptr<std::mutex> io_mu_ = std::make_unique<std::mutex>();
};

}  // namespace fdx

#endif  // FDX_STORE_CHUNKED_TABLE_H_
