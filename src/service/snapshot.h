#ifndef FDX_SERVICE_SNAPSHOT_H_
#define FDX_SERVICE_SNAPSHOT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/fdx.h"
#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Durable on-disk form of one fdxd session (see DESIGN.md §13). The
/// codec round-trips everything a discover result depends on — schema,
/// every FdxOptions member CanonicalOptionsKey covers (plus the thread
/// counts and the time budget; never the runtime pointers: deadlines,
/// warm starts), and the raw batches — so a restarted daemon can replay
/// the appends and serve bit-identical results. fdxd writes only
/// the "chunked" form, once per session: its rows live in the session's
/// chunk store. The "memory" form, rows embedded, is what older daemons
/// wrote; a restart decodes it to migrate the rows onto the store.
///
/// Encoding rules (all deliberate, all verified on decode):
///  - Doubles are JSON *strings* rendered with %.17g. JsonWriter's
///    Number() is %.12g, which would silently perturb options and cell
///    values across a restart; strings keep every bit.
///  - The transform seed (uint64) is a string too — values above 2^53
///    do not survive a double round-trip.
///  - Cells are type-tagged (data/cell_json.h): null, ["i","<int64>"],
///    ["d","<%.17g>"], ["s",text]. The protocol's JsonCellToValue would
///    re-type an integral double as an int and change the table
///    fingerprint.
struct SessionSnapshot {
  std::string id;            ///< registry id, e.g. "s-3"
  Schema schema;
  FdxOptions options;
  std::string options_key;   ///< CanonicalOptionsKey at encode time
  std::string content_hex;   ///< session fingerprint when written
  std::vector<Table> batches;
  /// "memory" (batches embedded above; the older format) or "chunked"
  /// (batches live in the session's ChunkedTable store directory — the
  /// file only names them, and the server verifies the content
  /// fingerprint after replaying the chunks).
  std::string storage = "memory";
};

/// Renders one session to its snapshot file contents (single-line
/// JSON). With storage "chunked" no batches are embedded (the chunk
/// store is the durable copy; pass an empty `batches_json`) and a
/// "storage" key is written. A "memory" snapshot splices in each batch
/// pre-encoded by EncodeBatchRows, byte-identical to the older format.
std::string EncodeSessionSnapshot(
    const std::string& id, const Schema& schema, const FdxOptions& options,
    const std::string& options_key, const std::string& content_hex,
    const std::vector<std::string>& batches_json,
    const std::string& storage = "memory");

/// Parses and *verifies* a snapshot: the decoded options must reproduce
/// the stored canonical options key, and the decoded batches must
/// reproduce the stored session fingerprint. Any mismatch — codec
/// drift, truncation, manual edits — fails loudly instead of reviving a
/// session that would serve different bytes than before the crash.
/// Chunked snapshots carry no batches; their content verification
/// happens in the server once the chunk store has been replayed.
Result<SessionSnapshot> DecodeSessionSnapshot(const std::string& text);

/// Renders one batch's rows as the type-tagged cell arrays described
/// above, for a "memory" snapshot.
std::string EncodeBatchRows(const Table& batch);

/// ResultCache spill: (key, payload) pairs, LRU-first so re-inserting
/// in order reproduces the recency order.
std::string EncodeCacheSnapshot(
    const std::vector<std::pair<std::string, std::string>>& entries);
Result<std::vector<std::pair<std::string, std::string>>> DecodeCacheSnapshot(
    const std::string& text);

}  // namespace fdx

#endif  // FDX_SERVICE_SNAPSHOT_H_
