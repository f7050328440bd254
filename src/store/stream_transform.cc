#include "store/stream_transform.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pairs.h"
#include "core/transform_kernels.h"
#include "linalg/bitmatrix.h"
#include "util/file_io.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fdx {
namespace {

Status CheckRssCeiling(const StreamTransformOptions& options) {
  if (options.rss_limit_bytes == 0) return Status::OK();
  const uint64_t rss = CurrentRssBytes();
  if (rss <= options.rss_limit_bytes) return Status::OK();
  return Status::Unavailable(
      "stream transform: resident set " + std::to_string(rss) +
      " bytes exceeds the memory ceiling of " +
      std::to_string(options.rss_limit_bytes) + " bytes");
}

constexpr size_t kNoColumn = static_cast<size_t>(-1);

/// Double-buffered column decoder: while the caller works on the column
/// just returned, the next one decodes on the shared pool, so chunk I/O
/// overlaps sort/pack compute. Falls back to inline decoding when the
/// run is single-threaded (one buffer, zero synchronization).
class ColumnStream {
 public:
  ColumnStream(const ChunkedTable* table, bool async)
      : table_(table), async_(async) {}
  ~ColumnStream() {
    // A pending decode still owns its buffer; let it finish.
    if (pending_) pending_status_.wait();
  }

  /// Decodes `col` (or adopts its finished prefetch) and kicks off the
  /// decode of `next_col` (kNoColumn: nothing follows). The returned
  /// view stays valid until the next call.
  Result<CodeView> Next(size_t col, size_t next_col) {
    Status status = Status::OK();
    if (pending_ && pending_col_ == col) {
      status = pending_status_.get();
      pending_ = false;
      front_ ^= 1;  // the prefetch landed in the back buffer
    } else {
      if (pending_) {
        (void)pending_status_.get();  // drain a mismatched prefetch
        pending_ = false;
      }
      status = table_->ReadColumnCodes(col, &buf_[front_]);
    }
    FDX_RETURN_IF_ERROR(status);
    if (async_ && next_col != kNoColumn) {
      auto done = std::make_shared<std::promise<Status>>();
      pending_status_ = done->get_future();
      pending_col_ = next_col;
      pending_ = true;
      CodeColumn* dst = &buf_[front_ ^ 1];
      const ChunkedTable* table = table_;
      ThreadPool::Shared().Submit([table, next_col, dst, done] {
        done->set_value(table->ReadColumnCodes(next_col, dst));
      });
    }
    return buf_[front_].view();
  }

 private:
  const ChunkedTable* table_;
  bool async_;
  int front_ = 0;
  bool pending_ = false;
  size_t pending_col_ = 0;
  std::future<Status> pending_status_;
  CodeColumn buf_[2];
};

/// Bytes one attribute pass holds while it runs, on either schedule: its
/// sort order and counting-sort buckets, its bit matrix, its integer
/// accumulators, and one pack scratch.
uint64_t PassBytes(const ChunkedTable& table,
                   const StreamTransformOptions& options) {
  const uint64_t n = table.num_rows();
  const uint64_t k = table.num_columns();
  size_t max_cardinality = 0;
  for (size_t c = 0; c < k; ++c) {
    max_cardinality = std::max(max_cardinality, table.Cardinality(c));
  }
  const uint64_t pairs =
      PairsPerAttribute(n, options.transform.max_pairs_per_attribute);
  const uint64_t order_bytes = n * 4;
  const uint64_t bucket_bytes = (max_cardinality + 2) * 4;
  const uint64_t bits_bytes = (pairs + 63) / 64 * 8 * k;
  const uint64_t accum_bytes = (k * k + k) * 8;
  return order_bytes + bucket_bytes + bits_bytes + accum_bytes +
         sizeof(PackScratch);
}

/// Attribute passes per wave under the cache budget: what the budget
/// leaves after two decoded columns (streamed + decode-ahead, at the
/// widest column's width), at PassBytes each. At least one pass always
/// runs — a budget too small for even that degrades to wave size one
/// rather than failing.
size_t WaveSize(const ChunkedTable& table,
                const StreamTransformOptions& options) {
  const size_t k = table.num_columns();
  unsigned widest = 1;
  for (size_t c = 0; c < k; ++c) {
    widest = std::max(widest, CodeWidthFor(table.Cardinality(c)));
  }
  const uint64_t reserved =
      2 * static_cast<uint64_t>(table.num_rows()) * widest;
  const uint64_t budget = options.column_cache_bytes > reserved
                              ? options.column_cache_bytes - reserved
                              : 0;
  const uint64_t fit = budget / PassBytes(table, options);
  return static_cast<size_t>(
      std::min<uint64_t>(k, std::max<uint64_t>(1, fit)));
}

/// Passes the resident schedule may hold at once: unbounded (0) without
/// a memory ceiling; under one, what rss_limit_bytes leaves after the
/// column budget and an equal reserve for the rest of the process (the
/// shuffled row permutation, dictionaries, allocator slack), at
/// PassBytes each, and at least one.
size_t ResidentPassLimit(const ChunkedTable& table,
                         const StreamTransformOptions& options) {
  if (options.rss_limit_bytes == 0) return 0;
  const uint64_t reserved = options.column_cache_bytes >= UINT64_MAX / 2
                                ? UINT64_MAX
                                : 2 * options.column_cache_bytes;
  const uint64_t budget = options.rss_limit_bytes > reserved
                              ? options.rss_limit_bytes - reserved
                              : 0;
  return static_cast<size_t>(
      std::max<uint64_t>(1, budget / PassBytes(table, options)));
}

/// The wave schedule of the memory-bounded path. Passes are grouped
/// into waves sized by WaveSize; per wave:
///
///   1. sort — each pass's attribute column is decoded (one ahead, on
///      the pool) and the pass Reset; the column is released before the
///      next one arrives, so only two are ever resident.
///   2. pack — every column streams through once and is appended into
///      all of the wave's bit matrices concurrently (passes are
///      independent, so the fan-out is over passes, each chunk with its
///      own gather scratch). One decode per column per wave, not one per
///      column per pass.
///   3. accumulate — per-pass popcounts run in parallel into per-pass
///      integer buffers, then merge serially in attribute order.
///
/// Counts are integers (commutative merges) and pooled pass covariances
/// land in per-attribute slots reduced in attribute order, so the
/// result is bit-identical to the resident driver at any thread count.
Result<PassMoments> AccumulateWaves(const ChunkedTable& table,
                                    const StreamTransformOptions& options,
                                    const TransformStreams& streams) {
  const size_t k = table.num_columns();
  const size_t wave = WaveSize(table, options);
  const size_t threads = ResolveThreadCount(options.transform.threads);
  const bool async = threads > 1 && ThreadPool::Shared().size() > 0;
  const Deadline* deadline = options.transform.deadline;

  PassMoments moments(k, options.transform.pooled_covariance);
  LocalProfile times;
  Stopwatch watch;
  ColumnStream stream(&table, async);
  std::vector<AttributePass> passes(wave);
  std::vector<BitMatrix> bits(wave);
  std::vector<std::vector<uint64_t>> pass_counts(
      wave, std::vector<uint64_t>(k, 0));
  std::vector<std::vector<uint64_t>> pass_co_counts(
      wave, std::vector<uint64_t>(k * k, 0));
  std::vector<PackScratch> scratch(std::min(threads, wave));

  for (size_t wave_lo = 0; wave_lo < k; wave_lo += wave) {
    const size_t wave_hi = std::min(k, wave_lo + wave);
    const size_t w = wave_hi - wave_lo;
    if (deadline != nullptr && deadline->Expired()) {
      return Status::Timeout("pair transform: time budget exhausted");
    }
    FDX_RETURN_IF_ERROR(CheckRssCeiling(options));

    watch.Reset();
    for (size_t i = 0; i < w; ++i) {
      const size_t attr = wave_lo + i;
      // After the last sort column, the first pack column (0) follows.
      const size_t next = i + 1 < w ? attr + 1 : 0;
      FDX_ASSIGN_OR_RETURN(const CodeView codes, stream.Next(attr, next));
      passes[i].Reset(codes, table.Cardinality(attr), streams.shuffled,
                      options.transform.max_pairs_per_attribute,
                      streams.attr_seeds[attr]);
      bits[i].Reset(passes[i].num_pairs(), k);
    }
    times.sort += watch.ElapsedSeconds();

    watch.Reset();
    for (size_t col = 0; col < k; ++col) {
      if (deadline != nullptr && deadline->Expired()) {
        return Status::Timeout("pair transform: time budget exhausted");
      }
      // After the last pack column, the next wave's first sort column.
      const size_t next = col + 1 < k
                              ? col + 1
                              : (wave_hi < k ? wave_hi : kNoColumn);
      FDX_ASSIGN_OR_RETURN(const CodeView codes, stream.Next(col, next));
      ParallelForChunks(0, w, std::min(threads, w), threads,
                        [&](size_t chunk, size_t lo, size_t hi) {
                          for (size_t i = lo; i < hi; ++i) {
                            ColumnBitWriter writer(bits[i].column_words(col));
                            AppendPassColumnBits(codes, passes[i], &writer,
                                                 &scratch[chunk]);
                            writer.Flush();
                          }
                        });
    }
    times.pack += watch.ElapsedSeconds();

    watch.Reset();
    ParallelForChunks(0, w, std::min(threads, w), threads,
                      [&](size_t chunk, size_t lo, size_t hi) {
                        (void)chunk;
                        for (size_t i = lo; i < hi; ++i) {
                          std::fill(pass_counts[i].begin(),
                                    pass_counts[i].end(), 0);
                          std::fill(pass_co_counts[i].begin(),
                                    pass_co_counts[i].end(), 0);
                          bits[i].AccumulateMoments(pass_counts[i].data(),
                                                    pass_co_counts[i].data());
                        }
                      });
    for (size_t i = 0; i < w; ++i) {
      moments.AddPass(wave_lo + i, pass_counts[i], pass_co_counts[i],
                      passes[i].num_pairs());
    }
    times.accumulate += watch.ElapsedSeconds();
  }
  std::mutex profile_mu;
  times.MergeInto(options.transform.profile, &profile_mu);
  return moments;
}

}  // namespace

uint64_t DecodedColumnBytes(const ChunkedTable& table) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bytes += static_cast<uint64_t>(table.num_rows()) *
             CodeWidthFor(table.Cardinality(c));
  }
  return bytes;
}

bool TransformRunsResident(const ChunkedTable& table,
                           const StreamTransformOptions& options) {
  return options.column_cache_bytes == 0 ||
         DecodedColumnBytes(table) <= options.column_cache_bytes;
}

Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options) {
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  FDX_ASSIGN_OR_RETURN(
      TransformStreams streams,
      PrepareTransformStreams(n, k, options.transform.seed));
  if (!TransformRunsResident(table, options)) {
    FDX_ASSIGN_OR_RETURN(PassMoments moments,
                         AccumulateWaves(table, options, streams));
    return FinishMoments(moments);
  }
  // Everything fits: decode each column once, in parallel, and hand the
  // columns to the in-memory engine's resident driver.
  std::vector<CodeColumn> decoded(k);
  std::vector<Status> decode_status(k, Status::OK());
  ParallelFor(0, k, options.transform.threads, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      decode_status[c] = table.ReadColumnCodes(c, &decoded[c]);
    }
  });
  std::vector<CodeView> columns(k);
  std::vector<size_t> cardinalities(k);
  for (size_t c = 0; c < k; ++c) {
    FDX_RETURN_IF_ERROR(decode_status[c]);
    columns[c] = decoded[c].view();
    cardinalities[c] = table.Cardinality(c);
  }
  ResidentSchedule schedule;
  schedule.max_passes = ResidentPassLimit(table, options);
  if (options.rss_limit_bytes != 0) {
    schedule.between_passes = [&] { return CheckRssCeiling(options); };
  }
  FDX_ASSIGN_OR_RETURN(
      PassMoments moments,
      AccumulateResidentPasses(columns, cardinalities, streams,
                               options.transform,
                               options.transform.pooled_covariance,
                               schedule));
  return FinishMoments(moments);
}

}  // namespace fdx
