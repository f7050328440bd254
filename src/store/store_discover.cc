#include "store/store_discover.h"

#include "store/stream_transform.h"

namespace fdx {

Result<FdxResult> DiscoverFromStore(const ChunkedTable& table,
                                    const StoreDiscoverOptions& options) {
  return FdxDiscoverer(options.fdx).DiscoverWith(
      table.num_rows(), table.num_columns(),
      [&](const TransformOptions& transform) {
        StreamTransformOptions stream;
        stream.transform = transform;
        stream.column_cache_bytes = options.column_cache_bytes;
        stream.rss_limit_bytes = options.rss_limit_bytes;
        return StreamTransformMoments(table, stream);
      });
}

}  // namespace fdx
