#ifndef FDX_STORE_STORE_DISCOVER_H_
#define FDX_STORE_STORE_DISCOVER_H_

#include <cstdint>

#include "core/fdx.h"
#include "store/chunked_table.h"

namespace fdx {

/// Out-of-core discovery knobs: the full FdxOptions plus the streaming
/// transform's memory controls (see store/stream_transform.h).
struct StoreDiscoverOptions {
  FdxOptions fdx;
  /// Budget for resident decoded columns; 0 = unbounded.
  uint64_t column_cache_bytes = 0;
  /// Process-RSS ceiling; a breach returns kUnavailable. 0 disables.
  uint64_t rss_limit_bytes = 0;
};

/// FdxDiscoverer::Discover over a ChunkedTable: the same pipeline body
/// (FdxDiscoverer::DiscoverWith) with the streaming pair transform as its
/// transform step. Bit-identical to discovering the in-memory
/// concatenation of every appended batch — same FDs, same matrices,
/// same diagnostics, same error messages — at any chunk size, cache
/// budget, and thread count.
Result<FdxResult> DiscoverFromStore(const ChunkedTable& table,
                                    const StoreDiscoverOptions& options = {});

}  // namespace fdx

#endif  // FDX_STORE_STORE_DISCOVER_H_
