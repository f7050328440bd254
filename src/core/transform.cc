#include "core/transform.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "core/pairs.h"
#include "core/transform_kernels.h"
#include "linalg/bitmatrix.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

namespace fdx {

Status CheckPassLimits(const TransformOptions& options,
                       uint64_t rss_limit_bytes) {
  if (options.deadline != nullptr && options.deadline->Expired()) {
    return Status::Timeout("pair transform: time budget exhausted");
  }
  if (rss_limit_bytes == 0) return Status::OK();
  const uint64_t rss = CurrentRssBytes();
  if (rss <= rss_limit_bytes) return Status::OK();
  return Status::Unavailable(
      "stream transform: resident set " + std::to_string(rss) +
      " bytes exceeds the memory ceiling of " +
      std::to_string(rss_limit_bytes) + " bytes");
}

Result<TransformStreams> PrepareTransformStreams(size_t n, size_t k,
                                                 uint64_t seed) {
  if (k == 0 || n < 2) {
    return Status::InvalidArgument(
        "pair transform needs >= 2 rows and >= 1 column");
  }
  if (n > UINT32_MAX) {
    // The pair layer streams 4-byte row indices (see core/pairs.h).
    return Status::InvalidArgument("pair transform caps at 2^32 - 1 rows");
  }
  TransformStreams streams;
  Rng rng(seed);
  streams.shuffled.resize(n);
  std::iota(streams.shuffled.begin(), streams.shuffled.end(), uint32_t{0});
  rng.Shuffle(&streams.shuffled);
  streams.attr_seeds = ForkAttributeSeeds(&rng, k);
  return streams;
}

Result<PassMoments> AccumulateResidentPasses(
    const CodePanel& panel, const TransformStreams& streams,
    const TransformOptions& options, bool pooled,
    const ResidentSchedule& schedule) {
  const size_t k = panel.num_columns();
  const PanelView view = panel.view();
  size_t num_chunks = std::min(ResolveThreadCount(options.threads), k);
  if (schedule.max_passes != 0) {
    num_chunks = std::min(num_chunks, schedule.max_passes);
  }
  std::vector<PassMoments> parts(num_chunks, PassMoments(k, pooled));
  std::mutex stop_mu;
  Status stop = Status::OK();
  std::atomic<bool> stopped{false};

  ParallelForChunks(
      0, k, num_chunks, options.threads,
      [&](size_t chunk, size_t lo, size_t hi) {
        AttributePass pass;
        BitMatrix bits;
        std::vector<uint64_t> scratch(
            PanelScratchWords(k, panel.row_bytes()));
        for (size_t attr = lo; attr < hi; ++attr) {
          if (stopped.load(std::memory_order_relaxed)) break;
          Status status = CheckPassLimits(options, schedule.rss_limit_bytes);
          if (!status.ok()) {
            std::lock_guard<std::mutex> lock(stop_mu);
            if (stop.ok()) stop = std::move(status);
            stopped.store(true, std::memory_order_relaxed);
            break;
          }
          {
            // The sort key lives only through the sort (Reset keeps no
            // view of it), so a slot holds it only while it sorts.
            CodeColumn key;
            panel.CopyColumn(attr, &key);
            pass.Reset(key.view(), panel.cardinality(attr), streams.shuffled,
                       options.max_pairs_per_attribute,
                       streams.attr_seeds[attr]);
          }
          bits.Reset(pass.num_pairs(), k);
          PackPanelPass(view, pass, &bits, scratch.data());
          parts[chunk].AddPass(attr, bits, pass.num_pairs());
        }
      });

  FDX_RETURN_IF_ERROR(stop);
  for (size_t chunk = 1; chunk < num_chunks; ++chunk) {
    parts[0].Merge(std::move(parts[chunk]));
  }
  return std::move(parts[0]);
}

namespace {

/// Runs AccumulateResidentPasses over a panel of the encoded columns.
Result<PassMoments> EncodedPasses(const EncodedTable& encoded,
                                  const TransformOptions& options,
                                  bool pooled) {
  const size_t k = encoded.num_columns();
  FDX_ASSIGN_OR_RETURN(
      TransformStreams streams,
      PrepareTransformStreams(encoded.num_rows(), k, options.seed));
  std::vector<CodeView> columns(k);
  for (size_t c = 0; c < k; ++c) columns[c] = encoded.column_codes(c);
  CodePanel panel(encoded.num_rows(), encoded.cardinalities());
  panel.Fill(0, columns.data(), k, options.threads);
  return AccumulateResidentPasses(panel, streams, options, pooled);
}

}  // namespace

Result<TransformCounts> PairTransformCounts(const Table& table,
                                            const TransformOptions& options) {
  FDX_ASSIGN_OR_RETURN(PassMoments moments,
                       EncodedPasses(EncodedTable::Encode(table), options,
                                     /*pooled=*/false));
  if (moments.sums.num_samples == 0) {
    return Status::InvalidArgument("pair transform produced no samples");
  }
  return std::move(moments.sums);
}

Result<TransformedMoments> PairTransformMoments(
    const EncodedTable& table, const TransformOptions& options) {
  FDX_ASSIGN_OR_RETURN(
      PassMoments moments,
      EncodedPasses(table, options, options.pooled_covariance));
  return FinishMoments(moments);
}

Result<TransformedMoments> PairTransformMoments(
    const Table& table, const TransformOptions& options) {
  return PairTransformMoments(EncodedTable::Encode(table), options);
}

}  // namespace fdx
