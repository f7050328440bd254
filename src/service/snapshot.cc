#include "service/snapshot.h"

#include <cerrno>
#include <cstdlib>

#include "core/ordering.h"
#include "data/cell_json.h"
#include "service/protocol.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace fdx {

namespace {

constexpr int kSnapshotVersion = 1;

std::string ExactU64(uint64_t value) { return std::to_string(value); }

/// Parses a %.17g string back to the identical double.
Result<double> ParseExactDouble(const JsonValue* value,
                                const std::string& field) {
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument("snapshot: missing double field '" + field +
                                   "'");
  }
  const std::string& text = value->string_value();
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("snapshot: malformed double in '" + field +
                                   "': '" + text + "'");
  }
  return parsed;
}

Result<uint64_t> ParseExactU64(const JsonValue* value,
                               const std::string& field) {
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument("snapshot: missing integer field '" +
                                   field + "'");
  }
  const std::string& text = value->string_value();
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("snapshot: malformed integer in '" + field +
                                   "': '" + text + "'");
  }
  return static_cast<uint64_t>(parsed);
}

Result<bool> ParseBool(const JsonValue* value, const std::string& field) {
  if (value == nullptr || !value->is_bool()) {
    return Status::InvalidArgument("snapshot: missing bool field '" + field +
                                   "'");
  }
  return value->bool_value();
}

void WriteOptionsJson(JsonWriter* json, const FdxOptions& o) {
  json->BeginObject();
  json->Key("estimator");
  json->String(o.estimator == StructureEstimator::kGraphicalLasso
                   ? "glasso"
                   : "seqlasso");
  json->Key("lambda");
  json->String(ExactDouble(o.lambda));
  json->Key("sparsity_threshold");
  json->String(ExactDouble(o.sparsity_threshold));
  json->Key("relative_threshold");
  json->String(ExactDouble(o.relative_threshold));
  json->Key("minimum_column_weight");
  json->String(ExactDouble(o.minimum_column_weight));
  json->Key("zero_tolerance");
  json->String(ExactDouble(o.zero_tolerance));
  json->Key("normalize_covariance");
  json->Bool(o.normalize_covariance);
  json->Key("ordering");
  json->String(OrderingMethodName(o.ordering));
  json->Key("transform");
  json->BeginObject();
  json->Key("seed");
  json->String(ExactU64(o.transform.seed));
  json->Key("max_pairs_per_attribute");
  json->String(ExactU64(o.transform.max_pairs_per_attribute));
  json->Key("pooled_covariance");
  json->Bool(o.transform.pooled_covariance);
  json->Key("threads");
  json->String(ExactU64(o.transform.threads));
  json->EndObject();
  json->Key("glasso");
  json->BeginObject();
  json->Key("lambda");
  json->String(ExactDouble(o.glasso.lambda));
  json->Key("max_iterations");
  json->String(ExactU64(o.glasso.max_iterations));
  json->Key("tolerance");
  json->String(ExactDouble(o.glasso.tolerance));
  json->Key("diagonal_ridge");
  json->String(ExactDouble(o.glasso.diagonal_ridge));
  json->Key("lasso_max_iterations");
  json->String(ExactU64(o.glasso.lasso_max_iterations));
  json->Key("lasso_tolerance");
  json->String(ExactDouble(o.glasso.lasso_tolerance));
  json->Key("solver");
  json->String(GlassoSolverName(o.glasso.solver));
  json->Key("newton_max_iterations");
  json->String(ExactU64(o.glasso.newton_max_iterations));
  json->Key("newton_min_block");
  json->String(ExactU64(o.glasso.newton_min_block));
  json->Key("newton_dense_threshold");
  json->String(ExactDouble(o.glasso.newton_dense_threshold));
  json->Key("lambda_path");
  json->Bool(o.glasso.lambda_path);
  json->EndObject();
  json->Key("threads");
  json->String(ExactU64(o.threads));
  json->Key("time_budget_seconds");
  json->String(ExactDouble(o.time_budget_seconds));
  json->Key("reuse_solver_state");
  json->Bool(o.reuse_solver_state);
  json->Key("recovery");
  json->BeginObject();
  json->Key("enabled");
  json->Bool(o.recovery.enabled);
  json->Key("max_ridge_retries");
  json->String(ExactU64(o.recovery.max_ridge_retries));
  json->Key("ridge_multiplier");
  json->String(ExactDouble(o.recovery.ridge_multiplier));
  json->Key("max_ridge");
  json->String(ExactDouble(o.recovery.max_ridge));
  json->Key("allow_estimator_fallback");
  json->Bool(o.recovery.allow_estimator_fallback);
  json->Key("allow_quarantine");
  json->Bool(o.recovery.allow_quarantine);
  json->Key("degenerate_variance_floor");
  json->String(ExactDouble(o.recovery.degenerate_variance_floor));
  json->EndObject();
  json->EndObject();
}

#define FDX_SNAP_DOUBLE(target, parent, field)                       \
  do {                                                               \
    FDX_ASSIGN_OR_RETURN(target, ParseExactDouble((parent)->Find(field), \
                                                  field));           \
  } while (false)

#define FDX_SNAP_U64(target, type, parent, field)                        \
  do {                                                                   \
    uint64_t fdx_snap_u64_tmp = 0;                                       \
    FDX_ASSIGN_OR_RETURN(fdx_snap_u64_tmp,                               \
                         ParseExactU64((parent)->Find(field), field));   \
    target = static_cast<type>(fdx_snap_u64_tmp);                        \
  } while (false)

#define FDX_SNAP_BOOL(target, parent, field)                           \
  do {                                                                 \
    FDX_ASSIGN_OR_RETURN(target, ParseBool((parent)->Find(field), field)); \
  } while (false)

Result<FdxOptions> ParseOptionsSnapshot(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("snapshot: options must be an object");
  }
  FdxOptions o;
  const std::string estimator = json.StringOr("estimator", "");
  if (estimator == "glasso") {
    o.estimator = StructureEstimator::kGraphicalLasso;
  } else if (estimator == "seqlasso") {
    o.estimator = StructureEstimator::kSequentialLasso;
  } else {
    return Status::InvalidArgument("snapshot: unknown estimator '" +
                                   estimator + "'");
  }
  FDX_SNAP_DOUBLE(o.lambda, &json, "lambda");
  FDX_SNAP_DOUBLE(o.sparsity_threshold, &json, "sparsity_threshold");
  FDX_SNAP_DOUBLE(o.relative_threshold, &json, "relative_threshold");
  FDX_SNAP_DOUBLE(o.minimum_column_weight, &json, "minimum_column_weight");
  FDX_SNAP_DOUBLE(o.zero_tolerance, &json, "zero_tolerance");
  FDX_SNAP_BOOL(o.normalize_covariance, &json, "normalize_covariance");
  FDX_ASSIGN_OR_RETURN(o.ordering,
                       ParseOrderingMethod(json.StringOr("ordering", "")));
  const JsonValue* transform = json.Find("transform");
  if (transform == nullptr || !transform->is_object()) {
    return Status::InvalidArgument("snapshot: missing transform options");
  }
  FDX_SNAP_U64(o.transform.seed, uint64_t, transform, "seed");
  FDX_SNAP_U64(o.transform.max_pairs_per_attribute, size_t, transform,
               "max_pairs_per_attribute");
  FDX_SNAP_BOOL(o.transform.pooled_covariance, transform,
                "pooled_covariance");
  FDX_SNAP_U64(o.transform.threads, size_t, transform, "threads");
  const JsonValue* glasso = json.Find("glasso");
  if (glasso == nullptr || !glasso->is_object()) {
    return Status::InvalidArgument("snapshot: missing glasso options");
  }
  FDX_SNAP_DOUBLE(o.glasso.lambda, glasso, "lambda");
  FDX_SNAP_U64(o.glasso.max_iterations, size_t, glasso, "max_iterations");
  FDX_SNAP_DOUBLE(o.glasso.tolerance, glasso, "tolerance");
  FDX_SNAP_DOUBLE(o.glasso.diagonal_ridge, glasso, "diagonal_ridge");
  FDX_SNAP_U64(o.glasso.lasso_max_iterations, size_t, glasso,
               "lasso_max_iterations");
  FDX_SNAP_DOUBLE(o.glasso.lasso_tolerance, glasso, "lasso_tolerance");
  // The solver members joined the file later, all five together. A file
  // without them decodes them as defaults; its stored options key then
  // verifies only if the session ran with those defaults.
  if (glasso->Find("solver") != nullptr) {
    if (!ParseGlassoSolver(glasso->StringOr("solver", ""),
                           &o.glasso.solver)) {
      return Status::InvalidArgument("snapshot: unknown glasso solver");
    }
    FDX_SNAP_U64(o.glasso.newton_max_iterations, size_t, glasso,
                 "newton_max_iterations");
    FDX_SNAP_U64(o.glasso.newton_min_block, size_t, glasso,
                 "newton_min_block");
    FDX_SNAP_DOUBLE(o.glasso.newton_dense_threshold, glasso,
                    "newton_dense_threshold");
    FDX_SNAP_BOOL(o.glasso.lambda_path, glasso, "lambda_path");
  }
  FDX_SNAP_U64(o.threads, size_t, &json, "threads");
  FDX_SNAP_DOUBLE(o.time_budget_seconds, &json, "time_budget_seconds");
  FDX_SNAP_BOOL(o.reuse_solver_state, &json, "reuse_solver_state");
  const JsonValue* recovery = json.Find("recovery");
  if (recovery == nullptr || !recovery->is_object()) {
    return Status::InvalidArgument("snapshot: missing recovery options");
  }
  FDX_SNAP_BOOL(o.recovery.enabled, recovery, "enabled");
  FDX_SNAP_U64(o.recovery.max_ridge_retries, size_t, recovery,
               "max_ridge_retries");
  FDX_SNAP_DOUBLE(o.recovery.ridge_multiplier, recovery, "ridge_multiplier");
  FDX_SNAP_DOUBLE(o.recovery.max_ridge, recovery, "max_ridge");
  FDX_SNAP_BOOL(o.recovery.allow_estimator_fallback, recovery,
                "allow_estimator_fallback");
  FDX_SNAP_BOOL(o.recovery.allow_quarantine, recovery, "allow_quarantine");
  FDX_SNAP_DOUBLE(o.recovery.degenerate_variance_floor, recovery,
                  "degenerate_variance_floor");
  return o;
}

#undef FDX_SNAP_DOUBLE
#undef FDX_SNAP_U64
#undef FDX_SNAP_BOOL

void WriteBatchRowsJson(JsonWriter* json, const Table& batch) {
  json->BeginArray();
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    json->BeginArray();
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      WriteCellJson(json, batch.cell(r, c));
    }
    json->EndArray();
  }
  json->EndArray();
}

Result<Table> ParseBatchJson(const JsonValue& rows, const Schema& schema) {
  if (!rows.is_array()) {
    return Status::InvalidArgument("snapshot: batch must be an array of rows");
  }
  Table batch(schema);
  for (const JsonValue& row_json : rows.array()) {
    if (!row_json.is_array() || row_json.array().size() != schema.size()) {
      return Status::InvalidArgument(
          "snapshot: row width does not match the schema");
    }
    std::vector<Value> row;
    row.reserve(schema.size());
    for (const JsonValue& cell_json : row_json.array()) {
      Result<Value> cell = ParseCellJson(cell_json);
      if (!cell.ok()) {
        return Status::InvalidArgument("snapshot: " +
                                       cell.status().message());
      }
      row.push_back(std::move(cell).value());
    }
    batch.AppendRow(std::move(row));
  }
  return batch;
}

/// The session fingerprint a live registry would hold after replaying
/// `batches` (see DatasetSession: seeded with "session", then "batch" +
/// table fingerprint per append).
std::string ReplayContentHex(const std::vector<Table>& batches) {
  Fingerprint content;
  content.UpdateString("session");
  for (const Table& batch : batches) {
    content.UpdateString("batch");
    UpdateTableFingerprint(&content, batch);
  }
  return content.Hex();
}

}  // namespace

std::string EncodeSessionSnapshot(
    const std::string& id, const Schema& schema, const FdxOptions& options,
    const std::string& options_key, const std::string& content_hex,
    const std::vector<std::string>& batches_json,
    const std::string& storage) {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kSnapshotVersion);
  json.Key("session");
  json.String(id);
  if (storage != "memory") {
    json.Key("storage");
    json.String(storage);
  }
  json.Key("schema");
  json.BeginArray();
  for (const std::string& name : schema.names()) json.String(name);
  json.EndArray();
  json.Key("options");
  WriteOptionsJson(&json, options);
  json.Key("options_key");
  json.String(options_key);
  json.Key("content");
  json.String(content_hex);
  json.EndObject();
  if (storage != "memory") {
    // Chunked sessions keep their rows in the chunk store; the snapshot
    // is a manifest reference, not a copy of the data.
    return json.TakeString();
  }
  // Splice the pre-encoded batch arrays in front of the closing brace;
  // the key itself needs no escaping.
  std::string text = json.TakeString();
  text.pop_back();  // trailing '}'
  text += ",\"batches\":[";
  for (size_t b = 0; b < batches_json.size(); ++b) {
    if (b > 0) text += ',';
    text += batches_json[b];
  }
  text += "]}";
  return text;
}

std::string EncodeBatchRows(const Table& batch) {
  JsonWriter json;
  WriteBatchRowsJson(&json, batch);
  return json.TakeString();
}

Result<SessionSnapshot> DecodeSessionSnapshot(const std::string& text) {
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("snapshot: document must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(version));
  }
  SessionSnapshot snapshot;
  snapshot.id = root.StringOr("session", "");
  if (snapshot.id.empty()) {
    return Status::InvalidArgument("snapshot: missing session id");
  }
  const JsonValue* schema_json = root.Find("schema");
  if (schema_json == nullptr || !schema_json->is_array() ||
      schema_json->array().empty()) {
    return Status::InvalidArgument("snapshot: missing schema");
  }
  std::vector<std::string> names;
  names.reserve(schema_json->array().size());
  for (const JsonValue& name : schema_json->array()) {
    if (!name.is_string() || name.string_value().empty()) {
      return Status::InvalidArgument("snapshot: schema names must be strings");
    }
    names.push_back(name.string_value());
  }
  snapshot.schema = Schema(std::move(names));
  const JsonValue* options_json = root.Find("options");
  if (options_json == nullptr) {
    return Status::InvalidArgument("snapshot: missing options");
  }
  FDX_ASSIGN_OR_RETURN(snapshot.options, ParseOptionsSnapshot(*options_json));
  snapshot.options_key = root.StringOr("options_key", "");
  if (CanonicalOptionsKey(snapshot.options) != snapshot.options_key) {
    return Status::InvalidArgument(
        "snapshot: decoded options do not reproduce the stored options key "
        "(codec drift or corrupted file)");
  }
  snapshot.storage = root.StringOr("storage", "memory");
  if (snapshot.storage != "memory" && snapshot.storage != "chunked") {
    return Status::InvalidArgument("snapshot: unknown storage \"" +
                                   snapshot.storage + "\"");
  }
  snapshot.content_hex = root.StringOr("content", "");
  if (snapshot.storage == "chunked") {
    // The rows live in the chunk store; the server replays them from
    // there and verifies the replayed fingerprint against content_hex.
    if (snapshot.content_hex.empty()) {
      return Status::InvalidArgument(
          "snapshot: chunked session missing content fingerprint");
    }
    return snapshot;
  }
  const JsonValue* batches_json = root.Find("batches");
  if (batches_json == nullptr || !batches_json->is_array()) {
    return Status::InvalidArgument("snapshot: missing batches");
  }
  snapshot.batches.reserve(batches_json->array().size());
  for (const JsonValue& batch_json : batches_json->array()) {
    FDX_ASSIGN_OR_RETURN(Table batch,
                         ParseBatchJson(batch_json, snapshot.schema));
    snapshot.batches.push_back(std::move(batch));
  }
  if (ReplayContentHex(snapshot.batches) != snapshot.content_hex) {
    return Status::InvalidArgument(
        "snapshot: replayed batches do not reproduce the stored content "
        "fingerprint (corrupted or truncated file)");
  }
  return snapshot;
}

std::string EncodeCacheSnapshot(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kSnapshotVersion);
  json.Key("entries");
  json.BeginArray();
  for (const auto& [key, payload] : entries) {
    json.BeginArray();
    json.String(key);
    json.String(payload);
    json.EndArray();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeCacheSnapshot(
    const std::string& text) {
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("cache snapshot: document must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("cache snapshot: unsupported version " +
                                   std::to_string(version));
  }
  const JsonValue* entries_json = root.Find("entries");
  if (entries_json == nullptr || !entries_json->is_array()) {
    return Status::InvalidArgument("cache snapshot: missing entries");
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(entries_json->array().size());
  for (const JsonValue& entry : entries_json->array()) {
    if (!entry.is_array() || entry.array().size() != 2 ||
        !entry.array()[0].is_string() || !entry.array()[1].is_string()) {
      return Status::InvalidArgument(
          "cache snapshot: entries must be [key, payload] string pairs");
    }
    entries.emplace_back(entry.array()[0].string_value(),
                         entry.array()[1].string_value());
  }
  return entries;
}

}  // namespace fdx
