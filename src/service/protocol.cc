#include "service/protocol.h"

#include <cmath>
#include <cstdio>

#include "core/ordering.h"
#include "eval/report.h"
#include "util/fingerprint.h"
#include "util/flags.h"
#include "util/json_writer.h"

namespace fdx {

namespace {

/// Exact, locale-free double rendering for cache keys: %.17g preserves
/// every bit of a finite IEEE double.
std::string ExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Request option `key` as an integer in [0, max]: InvalidArgument
/// naming the option for a negative, fractional or out-of-range number.
Result<uint64_t> OptionCount(const std::string& key, const JsonValue& value,
                             uint64_t max) {
  const std::optional<uint64_t> count = value.CountValue(max);
  if (!count) {
    return Status::InvalidArgument("options." + key +
                                   " must be an integer in [0, " +
                                   std::to_string(max) + "]");
  }
  return *count;
}

}  // namespace

Result<FdxOptions> ParseOptionsJson(const JsonValue& json,
                                    const FdxOptions& base) {
  if (!json.is_object()) {
    return Status::InvalidArgument("options must be a JSON object");
  }
  FdxOptions options = base;
  for (const auto& [key, value] : json.members()) {
    if (key == "estimator") {
      const std::string name =
          value.is_string() ? value.string_value() : std::string();
      if (name == "glasso") {
        options.estimator = StructureEstimator::kGraphicalLasso;
      } else if (name == "seqlasso") {
        options.estimator = StructureEstimator::kSequentialLasso;
      } else {
        return Status::InvalidArgument(
            "options.estimator must be \"glasso\" or \"seqlasso\"");
      }
    } else if (key == "lambda" && value.is_number()) {
      options.lambda = value.number_value();
    } else if (key == "tau" && value.is_number()) {
      options.sparsity_threshold = value.number_value();
    } else if (key == "relative_threshold" && value.is_number()) {
      options.relative_threshold = value.number_value();
    } else if (key == "minimum_column_weight" && value.is_number()) {
      options.minimum_column_weight = value.number_value();
    } else if (key == "normalize" && value.is_bool()) {
      options.normalize_covariance = value.bool_value();
    } else if (key == "ordering" && value.is_string()) {
      FDX_ASSIGN_OR_RETURN(options.ordering,
                           ParseOrderingMethod(value.string_value()));
    } else if (key == "seed" && value.is_number()) {
      FDX_ASSIGN_OR_RETURN(options.transform.seed,
                           OptionCount(key, value, UINT64_MAX));
    } else if (key == "max_pairs" && value.is_number()) {
      FDX_ASSIGN_OR_RETURN(options.transform.max_pairs_per_attribute,
                           OptionCount(key, value, SIZE_MAX));
    } else if (key == "pooled_covariance" && value.is_bool()) {
      options.transform.pooled_covariance = value.bool_value();
    } else if (key == "time_budget_seconds" && value.is_number()) {
      options.time_budget_seconds = value.number_value();
    } else if (key == "threads" && value.is_number()) {
      FDX_ASSIGN_OR_RETURN(options.threads,
                           OptionCount(key, value, kMaxThreadsFlag));
    } else if (key == "recovery" && value.is_bool()) {
      options.recovery.enabled = value.bool_value();
    } else if (key == "warm_start" && value.is_bool()) {
      options.reuse_solver_state = value.bool_value();
    } else if (key == "solver" && value.is_string()) {
      if (!ParseGlassoSolver(value.string_value(), &options.glasso.solver)) {
        return Status::InvalidArgument(
            "options.solver must be \"auto\", \"cd\", or \"newton\"");
      }
    } else {
      return Status::InvalidArgument("unknown or mistyped option \"" + key +
                                     "\"");
    }
  }
  return options;
}

std::string CanonicalOptionsKey(const FdxOptions& o) {
  // Fixed field order; every result-affecting knob, including the ones
  // the protocol cannot set yet — adding a knob without extending this
  // key would poison the cache.
  std::string key;
  key += "est=" + std::to_string(static_cast<int>(o.estimator));
  key += ";lam=" + ExactDouble(o.lambda);
  key += ";tau=" + ExactDouble(o.sparsity_threshold);
  key += ";rel=" + ExactDouble(o.relative_threshold);
  key += ";floor=" + ExactDouble(o.minimum_column_weight);
  key += ";zero=" + ExactDouble(o.zero_tolerance);
  key += ";norm=" + std::to_string(o.normalize_covariance ? 1 : 0);
  key += ";ord=" + OrderingMethodName(o.ordering);
  key += ";seed=" + std::to_string(o.transform.seed);
  key += ";pairs=" + std::to_string(o.transform.max_pairs_per_attribute);
  key += ";pooled=" + std::to_string(o.transform.pooled_covariance ? 1 : 0);
  key += ";glam=" + ExactDouble(o.glasso.lambda);
  key += ";giter=" + std::to_string(o.glasso.max_iterations);
  key += ";gtol=" + ExactDouble(o.glasso.tolerance);
  key += ";gridge=" + ExactDouble(o.glasso.diagonal_ridge);
  key += ";gliter=" + std::to_string(o.glasso.lasso_max_iterations);
  key += ";gltol=" + ExactDouble(o.glasso.lasso_tolerance);
  key += ";gsolver=" + std::to_string(static_cast<int>(o.glasso.solver));
  key += ";gniter=" + std::to_string(o.glasso.newton_max_iterations);
  key += ";gnmin=" + std::to_string(o.glasso.newton_min_block);
  key += ";gndense=" + ExactDouble(o.glasso.newton_dense_threshold);
  key += ";gpath=" + std::to_string(o.glasso.lambda_path ? 1 : 0);
  key += ";rec=" + std::to_string(o.recovery.enabled ? 1 : 0);
  key += ";rretry=" + std::to_string(o.recovery.max_ridge_retries);
  key += ";rmul=" + ExactDouble(o.recovery.ridge_multiplier);
  key += ";rmax=" + ExactDouble(o.recovery.max_ridge);
  key += ";rfall=" +
         std::to_string(o.recovery.allow_estimator_fallback ? 1 : 0);
  key += ";rquar=" + std::to_string(o.recovery.allow_quarantine ? 1 : 0);
  key += ";rvar=" + ExactDouble(o.recovery.degenerate_variance_floor);
  // Warm starts don't change a one-shot discover (there is no previous
  // solve to seed from), but session keys splice this key together with
  // the solve lineage, where the flag decides whether lineage exists.
  key += ";wrm=" + std::to_string(o.reuse_solver_state ? 1 : 0);
  // Excluded on purpose: threads (bit-identical results at any count,
  // DESIGN.md section 7) and time_budget_seconds (bounds wall-clock,
  // never changes the bytes of a run that finishes).
  return key;
}

std::string FingerprintTable(const Table& table) {
  Fingerprint fp;
  fp.UpdateString("tbl");
  UpdateTableFingerprint(&fp, table);
  return fp.Hex();
}

void UpdateTableFingerprint(Fingerprint* out, const Table& table) {
  Fingerprint& fp = *out;
  fp.UpdateU64(table.num_rows());
  fp.UpdateU64(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    fp.UpdateString(table.schema().name(c));
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& cell = table.cell(r, c);
      switch (cell.type()) {
        case ValueType::kNull:
          fp.UpdateU64(0);
          break;
        case ValueType::kInt:
          fp.UpdateU64(1);
          fp.UpdateU64(static_cast<uint64_t>(cell.AsInt()));
          break;
        case ValueType::kDouble:
          fp.UpdateU64(2);
          fp.UpdateDouble(cell.AsDouble());
          break;
        case ValueType::kString:
          fp.UpdateU64(3);
          fp.UpdateString(cell.AsString());
          break;
      }
    }
  }
}

Result<Value> JsonCellToValue(const JsonValue& cell) {
  switch (cell.kind()) {
    case JsonValue::Kind::kNull:
      return Value::Null();
    case JsonValue::Kind::kNumber: {
      const double number = cell.number_value();
      const double rounded = std::nearbyint(number);
      if (number == rounded && std::fabs(number) < 9.0e15) {
        return Value(static_cast<int64_t>(rounded));
      }
      return Value(number);
    }
    case JsonValue::Kind::kString:
      return Value::Parse(cell.string_value());
    default:
      return Status::InvalidArgument(
          "row cells must be null, a number, or a string");
  }
}

std::string RenderDiscoverResponse(const Schema& schema, size_t rows,
                                   const FdxResult& result) {
  std::vector<std::string> names;
  names.reserve(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) names.push_back(schema.name(c));
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("discover");
  json.Key("rows");
  json.Integer(static_cast<int64_t>(rows));
  json.Key("columns");
  json.Integer(static_cast<int64_t>(schema.size()));
  json.Key("samples");
  json.Integer(static_cast<int64_t>(result.transform_samples));
  json.Key("fds");
  json.BeginArray();
  for (const auto& fd : result.fds) {
    json.BeginObject();
    json.Key("lhs");
    json.BeginArray();
    for (size_t a : fd.lhs) json.String(schema.name(a));
    json.EndArray();
    json.Key("rhs");
    json.String(schema.name(fd.rhs));
    json.EndObject();
  }
  json.EndArray();
  json.Key("diagnostics");
  // Timings excluded: this payload is cached and must be bit-identical
  // to a fresh run on the same (data, options).
  WriteRunDiagnosticsJson(&json, result.diagnostics, names,
                          /*include_timings=*/false);
  json.EndObject();
  return json.TakeString();
}

std::string StatusCodeName(StatusCode code) {
  // Mirrors Status::ToString's names; kOk never reaches the wire.
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNumericalError:
      return "NumericalError";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string RenderErrorResponse(const std::string& op, const Status& status,
                                double retry_after_seconds) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(false);
  json.Key("op");
  json.String(op);
  json.Key("error");
  json.BeginObject();
  json.Key("code");
  json.String(StatusCodeName(status.code()));
  json.Key("message");
  json.String(status.message());
  json.EndObject();
  if (status.code() == StatusCode::kUnavailable ||
      retry_after_seconds > 0.0) {
    json.Key("retry");
    json.Bool(true);
  }
  if (retry_after_seconds > 0.0) {
    json.Key("retry_after");
    json.Number(retry_after_seconds);
  }
  json.EndObject();
  return json.TakeString();
}

namespace {

/// Integer member of `parent` (0 when absent / not an object).
int64_t StatusInt(const JsonValue* parent, const std::string& key) {
  if (parent == nullptr) return 0;
  return static_cast<int64_t>(parent->NumberOr(key, 0.0));
}

}  // namespace

std::string RenderStatusTextReport(const JsonValue& status) {
  const JsonValue* io = status.Find("io");
  const JsonValue* by_op = status.Find("requests_by_op");
  const JsonValue* queue = status.Find("queue");
  const JsonValue* cache = status.Find("cache");
  const JsonValue* sessions = status.Find("sessions");
  const JsonValue* solver = status.Find("solver");

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "fdxd status — up %.1fs\n",
                status.NumberOr("uptime_seconds", 0.0));
  out += line;

  std::snprintf(line, sizeof(line),
                "io:          io_threads=%lld connections_live=%lld "
                "accept_transient_errors=%lld\n",
                static_cast<long long>(StatusInt(io, "io_threads")),
                static_cast<long long>(StatusInt(io, "connections_live")),
                static_cast<long long>(StatusInt(io, "accept_transient_errors")));
  out += line;

  std::snprintf(line, sizeof(line),
                "connections: total=%lld accept_faults=%lld\n",
                static_cast<long long>(StatusInt(&status, "connections")),
                static_cast<long long>(StatusInt(&status, "accept_faults")));
  out += line;

  std::snprintf(
      line, sizeof(line),
      "requests:    total=%lld open=%lld append=%lld discover=%lld "
      "status=%lld sleep=%lld shutdown=%lld invalid=%lld\n",
      static_cast<long long>(StatusInt(&status, "requests")),
      static_cast<long long>(StatusInt(by_op, "open")),
      static_cast<long long>(StatusInt(by_op, "append")),
      static_cast<long long>(StatusInt(by_op, "discover")),
      static_cast<long long>(StatusInt(by_op, "status")),
      static_cast<long long>(StatusInt(by_op, "sleep")),
      static_cast<long long>(StatusInt(by_op, "shutdown")),
      static_cast<long long>(StatusInt(by_op, "invalid")));
  out += line;

  // "depth" in the human report is the JSON "active" count: jobs
  // admitted and not yet finished (running or waiting).
  std::snprintf(line, sizeof(line),
                "queue:       depth=%lld capacity=%lld workers=%lld "
                "executed=%lld rejected=%lld\n",
                static_cast<long long>(StatusInt(queue, "active")),
                static_cast<long long>(StatusInt(queue, "capacity")),
                static_cast<long long>(StatusInt(queue, "workers")),
                static_cast<long long>(StatusInt(queue, "executed")),
                static_cast<long long>(StatusInt(queue, "rejected")));
  out += line;

  std::snprintf(line, sizeof(line),
                "cache:       size=%lld capacity=%lld hits=%lld misses=%lld "
                "evictions=%lld\n",
                static_cast<long long>(StatusInt(cache, "size")),
                static_cast<long long>(StatusInt(cache, "capacity")),
                static_cast<long long>(StatusInt(cache, "hits")),
                static_cast<long long>(StatusInt(cache, "misses")),
                static_cast<long long>(StatusInt(cache, "evictions")));
  out += line;

  if (cache != nullptr) {
    if (const JsonValue* shards = cache->Find("shards");
        shards != nullptr && shards->is_array()) {
      for (size_t s = 0; s < shards->array().size(); ++s) {
        const JsonValue* shard = &shards->array()[s];
        std::snprintf(line, sizeof(line),
                      "  shard[%zu]   size=%lld hits=%lld misses=%lld "
                      "evictions=%lld\n",
                      s, static_cast<long long>(StatusInt(shard, "size")),
                      static_cast<long long>(StatusInt(shard, "hits")),
                      static_cast<long long>(StatusInt(shard, "misses")),
                      static_cast<long long>(StatusInt(shard, "evictions")));
        out += line;
      }
    }
  }

  std::snprintf(line, sizeof(line),
                "sessions:    open=%lld max=%lld shards=%lld opened=%lld "
                "evicted=%lld\n",
                static_cast<long long>(StatusInt(sessions, "open")),
                static_cast<long long>(StatusInt(sessions, "max")),
                static_cast<long long>(StatusInt(sessions, "shards")),
                static_cast<long long>(StatusInt(sessions, "opened")),
                static_cast<long long>(StatusInt(sessions, "evicted")));
  out += line;

  std::snprintf(line, sizeof(line),
                "solver:      solves=%lld warm_started=%lld memo_hits=%lld "
                "newton=%lld\n",
                static_cast<long long>(StatusInt(solver, "solves")),
                static_cast<long long>(StatusInt(solver, "warm_started")),
                static_cast<long long>(StatusInt(solver, "memo_hits")),
                static_cast<long long>(StatusInt(solver, "newton_solves")));
  out += line;

  // Overload + durability sections. StatusInt renders absent members
  // as zeros, so reports against older daemons stay readable.
  const JsonValue* shed = status.Find("shed");
  std::snprintf(line, sizeof(line),
                "shed:        queue=%lld memory=%lld deadline=%lld\n",
                static_cast<long long>(StatusInt(shed, "queue")),
                static_cast<long long>(StatusInt(shed, "memory")),
                static_cast<long long>(StatusInt(shed, "deadline")));
  out += line;

  const JsonValue* durability = status.Find("durability");
  const bool durable =
      durability != nullptr && durability->BoolOr("enabled", false);
  std::snprintf(
      line, sizeof(line),
      "durability:  enabled=%d recovered=%lld recovery_failed=%lld "
      "cache_restored=%lld snapshot_writes=%lld snapshot_failures=%lld "
      "orphan_stores_removed=%lld\n",
      durable ? 1 : 0,
      static_cast<long long>(StatusInt(durability, "sessions_recovered")),
      static_cast<long long>(StatusInt(durability, "sessions_recovery_failed")),
      static_cast<long long>(StatusInt(durability, "cache_entries_restored")),
      static_cast<long long>(StatusInt(durability, "snapshot_writes")),
      static_cast<long long>(StatusInt(durability, "snapshot_failures")),
      static_cast<long long>(StatusInt(durability, "orphan_stores_removed")));
  out += line;
  return out;
}

}  // namespace fdx
