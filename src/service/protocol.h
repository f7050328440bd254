#ifndef FDX_SERVICE_PROTOCOL_H_
#define FDX_SERVICE_PROTOCOL_H_

#include <string>

#include "core/fdx.h"
#include "data/table.h"
#include "util/json_parser.h"
#include "util/fingerprint.h"
#include "util/status.h"

namespace fdx {

/// Shared vocabulary of the fdxd wire protocol: one JSON object per
/// line in each direction. Requests carry an `"op"`; responses always
/// carry `"ok"` and echo the op. This header holds everything both the
/// daemon and tests need — option decoding, cache-key construction, and
/// the response renderers — so the framing logic in server.cc stays
/// free of JSON details.

/// Decodes an `"options"` object into FdxOptions on top of `base`.
/// Unknown keys are rejected (a typo'd option silently falling back to
/// the default is the worst failure mode a service knob can have).
/// Supported keys: estimator ("glasso"|"seqlasso"), lambda, tau,
/// relative_threshold, minimum_column_weight, normalize, ordering,
/// seed, max_pairs, pooled_covariance, time_budget_seconds, threads,
/// recovery (bool: master switch).
Result<FdxOptions> ParseOptionsJson(const JsonValue& json,
                                    const FdxOptions& base);

/// Canonical result-affecting encoding of FdxOptions — one half of the
/// result-cache key. Two option structs map to the same key iff every
/// field that can change discovery *output bytes* matches; knobs that
/// are output-invariant by the determinism contract (threads) or only
/// bound wall-clock (time_budget_seconds) are deliberately excluded,
/// so a re-run with a different budget still hits the cache.
std::string CanonicalOptionsKey(const FdxOptions& options);

/// Content fingerprint of a table: schema names, dimensions, and every
/// cell with a type tag (null, "" and 0 all hash differently). The
/// other half of the cache key.
std::string FingerprintTable(const Table& table);

/// Folds a table's schema, dimensions and cells into an existing
/// fingerprint. Used to maintain a running content hash over a dataset
/// session's appended batches; the per-call framing means batch
/// boundaries hash differently, matching the fact that batch-local
/// pairing makes them result-relevant.
void UpdateTableFingerprint(Fingerprint* fp, const Table& table);

/// Converts one JSON cell (null / number / string) to a Value. Strings
/// go through Value::Parse so `"1"` means the same thing it means in a
/// CSV upload; numbers stay numeric (integral doubles become ints).
Result<Value> JsonCellToValue(const JsonValue& cell);

/// Renders the deterministic `discover` success response (no timings,
/// no server state — byte-identical across runs on identical input).
/// `rows` is the table (or session stream) row count.
std::string RenderDiscoverResponse(const Schema& schema, size_t rows,
                                   const FdxResult& result);

/// Renders a failure response: `{"ok":false,"op":...,"error":{...}}`.
/// Unavailable errors additionally carry `"retry":true` — the HTTP-429
/// analogue clients key their backoff on. A positive
/// `retry_after_seconds` (load shedding, expired server deadlines)
/// additionally emits `"retry":true` and `"retry_after":<seconds>` —
/// the server's backoff hint — regardless of the status code.
std::string RenderErrorResponse(const std::string& op, const Status& status,
                                double retry_after_seconds = 0.0);

/// Status-code name used on the wire ("InvalidArgument", "Timeout", ...).
std::string StatusCodeName(StatusCode code);

/// Renders a parsed `status` response as a human-readable multi-line
/// report (what `fdxctl status --text` prints): I/O threads and live
/// connection count, cumulative requests by op, queue depth, per-shard
/// cache hit/miss counters, session and solver totals. Missing members
/// render as zeros so reports against older daemons stay readable.
std::string RenderStatusTextReport(const JsonValue& status);

}  // namespace fdx

#endif  // FDX_SERVICE_PROTOCOL_H_
