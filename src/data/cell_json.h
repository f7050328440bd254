#ifndef FDX_DATA_CELL_JSON_H_
#define FDX_DATA_CELL_JSON_H_

#include "data/value.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace fdx {

/// The type-tagged JSON form of one cell, shared by the chunk store's
/// dictionary deltas and fdxd's session files:
///
///   null | ["i","<int64>"] | ["d","<%.17g>"] | ["s",text]
///
/// Numbers travel as strings, so every bit survives: JSON numbers would
/// lose int64s above 2^53 and re-type an integral double as an int,
/// which changes the table fingerprint.
void WriteCellJson(JsonWriter* json, const Value& cell);

/// Parses one tagged cell back to the identical Value. Anything else is
/// InvalidArgument, its message unprefixed so each caller can name its
/// file and choose its own status code.
Result<Value> ParseCellJson(const JsonValue& cell);

}  // namespace fdx

#endif  // FDX_DATA_CELL_JSON_H_
