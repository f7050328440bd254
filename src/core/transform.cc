#include "core/transform.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>

#include "core/pairs.h"
#include "core/transform_kernels.h"
#include "linalg/bitmatrix.h"
#include "util/thread_pool.h"

namespace fdx {

namespace {

inline bool CheckDeadline(const TransformOptions& options,
                          std::atomic<bool>* expired) {
  if (options.deadline != nullptr &&
      (expired->load(std::memory_order_relaxed) ||
       options.deadline->Expired())) {
    expired->store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace

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
  std::atomic<bool> expired{false};
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
        // Only a pooled pass needs its own moments (for its covariance);
        // the others add straight into the thread's running sums.
        std::vector<uint64_t> pass_counts(pooled ? k : 0, 0);
        std::vector<uint64_t> pass_co_counts(pooled ? k * k : 0, 0);
        TransformCounts& sums = parts[chunk].sums;
        for (size_t attr = lo; attr < hi; ++attr) {
          if (CheckDeadline(options, &expired)) break;
          if (stopped.load(std::memory_order_relaxed)) break;
          if (schedule.between_passes) {
            Status status = schedule.between_passes();
            if (!status.ok()) {
              std::lock_guard<std::mutex> lock(stop_mu);
              if (stop.ok()) stop = std::move(status);
              stopped.store(true, std::memory_order_relaxed);
              break;
            }
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
          if (pooled) {
            std::fill(pass_counts.begin(), pass_counts.end(), 0);
            std::fill(pass_co_counts.begin(), pass_co_counts.end(), 0);
            bits.AccumulateMoments(pass_counts.data(), pass_co_counts.data());
            parts[chunk].AddPass(attr, pass_counts, pass_co_counts,
                                 pass.num_pairs());
          } else {
            bits.AccumulateMoments(sums.counts.data(), sums.co_counts.data());
            sums.num_samples += pass.num_pairs();
          }
        }
      });

  if (expired.load(std::memory_order_relaxed)) {
    return Status::Timeout("pair transform: time budget exhausted");
  }
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
