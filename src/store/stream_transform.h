#ifndef FDX_STORE_STREAM_TRANSFORM_H_
#define FDX_STORE_STREAM_TRANSFORM_H_

#include <cstdint>

#include "core/transform.h"
#include "store/chunked_table.h"

namespace fdx {

/// Knobs of the out-of-core pair transform. The embedded TransformOptions
/// mean exactly what they mean in-memory — same seed derivation, same
/// sampling, same pooled-covariance estimator — because both engines run
/// the shared kernels in core/transform_kernels.h.
struct StreamTransformOptions {
  TransformOptions transform;
  /// Budget for the resident working set. When every decoded column fits
  /// (4 bytes per row and column), the columns are decoded once and the
  /// passes run on the in-memory engine's resident driver; otherwise
  /// they run in waves sized to the budget, each column decoded once per
  /// wave. 0 means unbounded (keep all columns). Results are
  /// bit-identical either way — the budget only changes I/O.
  uint64_t column_cache_bytes = 0;
  /// Process-RSS ceiling polled between attribute passes; a breach
  /// returns kUnavailable (the caller chose the ceiling, the input
  /// simply does not fit under it). Clean file-backed pages of the
  /// store's chunk mappings are subtracted from the polled figure —
  /// the kernel reclaims those under pressure, so they are page cache,
  /// not footprint. 0 disables the check.
  uint64_t rss_limit_bytes = 0;
};

/// PairTransformMoments over a ChunkedTable. Bit-identical to running the
/// in-memory transform on the concatenation of every appended batch, at
/// any chunk size, cache budget, and thread count.
Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options = {});

}  // namespace fdx

#endif  // FDX_STORE_STREAM_TRANSFORM_H_
