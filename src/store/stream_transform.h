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
  /// Budget for the decoded columns. Each column decodes at its code
  /// width (1, 2 or 4 bytes per row; data/code_column.h). When every
  /// column fits at once (DecodedColumnBytes <= budget), the columns are
  /// decoded once and the passes run on the in-memory engine's resident
  /// driver; otherwise they run in waves sized to the budget, each
  /// column decoded once per wave. 0 means unbounded (keep all columns).
  /// Results are bit-identical either way — the budget only changes I/O.
  uint64_t column_cache_bytes = 0;
  /// Process-RSS ceiling, polled before every attribute pass of the
  /// resident schedule and before every wave; a breach returns
  /// kUnavailable (the caller chose the ceiling, the input simply does
  /// not fit under it). The ceiling also bounds the resident passes in
  /// flight: they share what it leaves after the column budget and an
  /// equal reserve for the rest of the process, rss_limit_bytes −
  /// 2·column_cache_bytes, at the bytes one pass holds (its sort order,
  /// bit matrix and accumulators); at least one pass runs.
  /// 0 disables the check and the bound.
  uint64_t rss_limit_bytes = 0;
};

/// Bytes the columns of `table` take decoded: the sum over columns of
/// rows × CodeWidthFor(Cardinality(c)).
uint64_t DecodedColumnBytes(const ChunkedTable& table);

/// Whether StreamTransformMoments runs `table` on the resident driver
/// under `options` (its decoded columns fit the column budget);
/// otherwise it runs waves.
bool TransformRunsResident(const ChunkedTable& table,
                           const StreamTransformOptions& options);

/// PairTransformMoments over a ChunkedTable. Bit-identical to running the
/// in-memory transform on the concatenation of every appended batch, at
/// any chunk size, cache budget, and thread count.
Result<TransformedMoments> StreamTransformMoments(
    const ChunkedTable& table, const StreamTransformOptions& options = {});

}  // namespace fdx

#endif  // FDX_STORE_STREAM_TRANSFORM_H_
