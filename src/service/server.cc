#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "data/csv.h"
#include "store/chunk_codec.h"
#include "util/json_parser.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/json_writer.h"

namespace fdx {

namespace {

/// Builds a Table from an inline JSON row block: `rows` is an array of
/// arrays whose cells are null / number / string. `schema` is the
/// authoritative width.
Result<Table> RowsToTable(const Schema& schema, const JsonValue& rows) {
  if (!rows.is_array()) {
    return Status::InvalidArgument("\"rows\" must be an array of arrays");
  }
  Table table(schema);
  for (size_t r = 0; r < rows.array().size(); ++r) {
    const JsonValue& row = rows.array()[r];
    if (!row.is_array() || row.array().size() != schema.size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " must be an array of " +
          std::to_string(schema.size()) + " cells");
    }
    std::vector<Value> cells;
    cells.reserve(schema.size());
    for (const JsonValue& cell : row.array()) {
      FDX_ASSIGN_OR_RETURN(Value value, JsonCellToValue(cell));
      cells.push_back(std::move(value));
    }
    table.AppendRow(std::move(cells));
  }
  return table;
}

/// Decodes a request's `schema` member (non-empty array of unique,
/// non-empty strings).
Result<Schema> ParseSchemaJson(const JsonValue& schema_json) {
  if (!schema_json.is_array() || schema_json.array().empty()) {
    return Status::InvalidArgument(
        "\"schema\" must be a non-empty array of column names");
  }
  std::vector<std::string> names;
  std::set<std::string> seen;
  names.reserve(schema_json.array().size());
  for (const JsonValue& name : schema_json.array()) {
    if (!name.is_string() || name.string_value().empty()) {
      return Status::InvalidArgument("schema names must be non-empty strings");
    }
    if (!seen.insert(name.string_value()).second) {
      return Status::InvalidArgument("duplicate schema name \"" +
                                     name.string_value() + "\"");
    }
    names.push_back(name.string_value());
  }
  return Schema(std::move(names));
}

/// A validated append: the target session and the batch's source,
/// copied out of the request so the batch can be parsed where the append
/// runs (inline, or on a worker after the request is gone).
struct AppendPlan {
  std::shared_ptr<DatasetSession> session;
  bool from_csv = false;
  std::string csv;  ///< headerless CSV text, when from_csv
  JsonValue rows;   ///< the inline row block, otherwise
  Table batch;      ///< valid once Parse() succeeded
  bool parsed = false;

  /// Decodes the batch against the session schema (once).
  Status Parse() {
    if (parsed) return Status::OK();
    const Schema& schema = session->fdx.schema();
    if (!from_csv) {
      FDX_ASSIGN_OR_RETURN(batch, RowsToTable(schema, rows));
    } else {
      // Headerless by design: the session schema was fixed at open.
      CsvOptions csv_options;
      csv_options.has_header = false;
      FDX_ASSIGN_OR_RETURN(batch, ReadCsvFromString(csv, csv_options));
      if (batch.num_columns() != schema.size()) {
        return Status::InvalidArgument(
            "csv batch has " + std::to_string(batch.num_columns()) +
            " columns; session schema has " + std::to_string(schema.size()));
      }
      // Headerless CSV parsing invents positional column names, but the
      // batch belongs to the schema fixed at open. Rebind it so every
      // fingerprint of this batch — including the restart replay that
      // recomputes it from the store — sees the same table.
      batch.ReplaceSchema(schema);
    }
    parsed = true;
    return Status::OK();
  }
};

Result<AppendPlan> PlanAppend(const JsonValue& request,
                              SessionRegistry* sessions) {
  const std::string id = request.StringOr("session", "");
  if (id.empty()) {
    return Status::InvalidArgument("append needs a \"session\" id");
  }
  AppendPlan plan;
  FDX_ASSIGN_OR_RETURN(plan.session, sessions->Get(id));
  const JsonValue* rows = request.Find("rows");
  const JsonValue* csv = request.Find("csv");
  if ((rows == nullptr) == (csv == nullptr)) {
    return Status::InvalidArgument(
        "append needs exactly one of \"rows\" or \"csv\"");
  }
  if (rows != nullptr) {
    plan.rows = *rows;
  } else if (!csv->is_string()) {
    return Status::InvalidArgument("\"csv\" must be a string");
  } else {
    plan.from_csv = true;
    plan.csv = csv->string_value();
  }
  return plan;
}

/// A validated discover: either a session (session != nullptr) or a
/// one-shot table plus its layered options and cache key.
struct DiscoverPlan {
  std::shared_ptr<DatasetSession> session;
  std::shared_ptr<const Table> table;
  FdxOptions table_options;
  std::string table_key;
};

Result<DiscoverPlan> PlanDiscover(const JsonValue& request,
                                  SessionRegistry* sessions,
                                  const FdxOptions& base_options) {
  if (const JsonValue* session_id = request.Find("session")) {
    if (!session_id->is_string()) {
      return Status::InvalidArgument("\"session\" must be a string");
    }
    if (request.Find("options") != nullptr) {
      return Status::InvalidArgument(
          "session options are fixed at open; omit \"options\"");
    }
    FDX_ASSIGN_OR_RETURN(std::shared_ptr<DatasetSession> session,
                         sessions->Get(session_id->string_value()));
    DiscoverPlan plan;
    plan.session = std::move(session);
    return plan;
  }

  // One-shot table: exactly one of csv / csv_path / table.
  const JsonValue* csv = request.Find("csv");
  const JsonValue* csv_path = request.Find("csv_path");
  const JsonValue* table_json = request.Find("table");
  const int sources = (csv != nullptr) + (csv_path != nullptr) +
                      (table_json != nullptr);
  if (sources != 1) {
    return Status::InvalidArgument(
        "discover needs exactly one of \"session\", \"csv\", \"csv_path\", "
        "or \"table\"");
  }

  Result<Table> table_or = Status::Internal("unreachable");
  if (csv != nullptr) {
    if (!csv->is_string()) {
      return Status::InvalidArgument("\"csv\" must be a string");
    }
    table_or = ReadCsvFromString(csv->string_value());
  } else if (csv_path != nullptr) {
    if (!csv_path->is_string()) {
      return Status::InvalidArgument("\"csv_path\" must be a string");
    }
    table_or = ReadCsv(csv_path->string_value());
  } else {
    const JsonValue* schema_json = table_json->Find("schema");
    const JsonValue* rows_json = table_json->Find("rows");
    if (schema_json == nullptr || rows_json == nullptr) {
      return Status::InvalidArgument(
          "\"table\" needs \"schema\" and \"rows\" members");
    }
    FDX_ASSIGN_OR_RETURN(Schema schema, ParseSchemaJson(*schema_json));
    table_or = RowsToTable(schema, *rows_json);
  }
  FDX_ASSIGN_OR_RETURN(Table table, std::move(table_or));

  FdxOptions fdx_options = base_options;
  if (const JsonValue* options_json = request.Find("options")) {
    FDX_ASSIGN_OR_RETURN(fdx_options,
                         ParseOptionsJson(*options_json, fdx_options));
  }

  DiscoverPlan plan;
  plan.table = std::make_shared<const Table>(std::move(table));
  plan.table_options = std::move(fdx_options);
  plan.table_key = "tbl|" + FingerprintTable(*plan.table) + "|" +
                   CanonicalOptionsKey(plan.table_options);
  return plan;
}

/// Whether `id` has the form the registry hands out: "s-" and digits.
bool IsSessionId(const std::string& id) {
  return id.size() > 2 && id.compare(0, 2, "s-") == 0 &&
         std::all_of(id.begin() + 2, id.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

/// A session file: schema and options under "storage":"chunked", with
/// the empty session's content fingerprint. The rows live in the
/// session's store, whose manifest carries the current fingerprint.
std::string EncodeSessionFile(const std::string& id, const IncrementalFdx& fdx,
                              const std::string& empty_content_hex) {
  return EncodeSessionSnapshot(id, fdx.schema(), fdx.options(),
                               CanonicalOptionsKey(fdx.options()),
                               empty_content_hex, {}, "chunked");
}

std::string RenderShutdownResponse() {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("shutdown");
  json.Key("draining");
  json.Bool(true);
  json.EndObject();
  return json.TakeString();
}

/// Worker-side body of the debug `sleep` op.
std::string SleepBody(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  if (seconds > 30.0) seconds = 30.0;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("sleep");
  json.EndObject();
  return json.TakeString();
}

}  // namespace

const char* RequestKindName(FdxServer::RequestKind kind) {
  switch (kind) {
    case FdxServer::RequestKind::kOpen:
      return "open";
    case FdxServer::RequestKind::kAppend:
      return "append";
    case FdxServer::RequestKind::kDiscover:
      return "discover";
    case FdxServer::RequestKind::kStatus:
      return "status";
    case FdxServer::RequestKind::kSleep:
      return "sleep";
    case FdxServer::RequestKind::kShutdown:
      return "shutdown";
    case FdxServer::RequestKind::kInvalid:
      return "invalid";
    case FdxServer::RequestKind::kCount:
      break;
  }
  return "invalid";
}

FdxServer::FdxServer(ServerOptions options) : options_(std::move(options)) {}

FdxServer::~FdxServer() { Shutdown(); }

Status FdxServer::Start() {
  // A bad codec name should fail startup, not the first chunked open.
  FDX_RETURN_IF_ERROR(FindChunkCodec(options_.store_compression).status());
  FDX_ASSIGN_OR_RETURN(listener_, ListenSocket::BindLoopback(options_.port));
  port_ = listener_.port();
  queue_ = std::make_unique<JobQueue>(options_.workers, options_.queue_capacity);
  cache_ = std::make_unique<ResultCache>(options_.cache_capacity,
                                         options_.cache_shards);
  sessions_ = std::make_unique<SessionRegistry>(options_.max_sessions,
                                                options_.session_ttl_seconds,
                                                options_.session_shards);
  if (durable()) {
    FDX_RETURN_IF_ERROR(EnsureDirectory(options_.state_dir));
    FDX_RETURN_IF_ERROR(EnsureDirectory(SessionsDir()));
    FDX_RETURN_IF_ERROR(EnsureDirectory(StoresDir()));
    // Replay before the listener serves anything: restored sessions and
    // cache entries must be visible to the very first request.
    FDX_RETURN_IF_ERROR(RestoreState());
    sessions_->SetEvictionListener([this](const std::vector<std::string>& ids) {
      for (const std::string& id : ids) {
        (void)RemoveFile(SessionSnapshotPath(id));
        (void)RemoveDirectoryRecursive(SessionStoreDir(id));
      }
    });
    snapshot_thread_ = std::thread(&FdxServer::SnapshotSpillLoop, this);
  }
  uptime_.Reset();
  accepting_.store(true);
  EventLoop::Options loop_options;
  loop_options.max_pipeline_depth =
      std::max<size_t>(1, options_.max_pipeline_depth);
  EventLoop::Callbacks callbacks;
  callbacks.dispatch = [this](std::string line, EventLoop::DoneFn done) {
    Dispatch(std::move(line), std::move(done));
  };
  callbacks.on_accept = [this](Socket sock) { OnAccept(std::move(sock)); };
  const size_t loops =
      options_.io_threads > 0
          ? options_.io_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  for (size_t i = 0; i < loops; ++i) {
    event_loops_.push_back(
        std::make_unique<EventLoop>(loop_options, callbacks));
  }
  // The accepting loop starts last: it hands sockets round-robin to
  // every loop, so every other loop must be running before the first
  // accept (the listener is bound before a possibly slow RestoreState,
  // so clients may already be queued).
  event_loops_.back()->AttachListener(&listener_);
  for (auto& loop : event_loops_) {
    FDX_RETURN_IF_ERROR(loop->Start());
  }
  return Status::OK();
}

void FdxServer::OnAccept(Socket sock) {
  if (FaultTriggered(kFaultServiceAccept)) {
    // Drop the connection on the floor: the client sees EOF and the
    // next connect succeeds — the transient-network failure mode.
    accept_faults_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!accepting_.load()) return;  // teardown raced this accept; drop it
  connections_.fetch_add(1, std::memory_order_relaxed);
  const size_t target = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                        event_loops_.size();
  event_loops_[target]->AdoptConnection(std::move(sock));
}

FdxServer::RequestKind FdxServer::RecordRequest(const std::string& op) {
  RequestKind kind = RequestKind::kInvalid;
  if (op == "open") {
    kind = RequestKind::kOpen;
  } else if (op == "append") {
    kind = RequestKind::kAppend;
  } else if (op == "discover") {
    kind = RequestKind::kDiscover;
  } else if (op == "status") {
    kind = RequestKind::kStatus;
  } else if (op == "sleep" && options_.enable_debug_ops) {
    kind = RequestKind::kSleep;
  } else if (op == "shutdown") {
    kind = RequestKind::kShutdown;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_by_kind_[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  return kind;
}

void FdxServer::Dispatch(std::string line, EventLoop::DoneFn done) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    RecordRequest("");
    done(RenderErrorResponse("request", parsed.status()), true);
    return;
  }
  const JsonValue& request = parsed.value();
  const std::string op = request.StringOr("op", "");
  RecordRequest(op);
  if (op.empty()) {
    done(RenderErrorResponse(
             "request",
             Status::InvalidArgument("request needs a string \"op\"")),
         true);
    return;
  }
  if (op == "open") {
    done(HandleOpen(request), true);
  } else if (op == "append") {
    HandleAppend(request, std::move(done));
  } else if (op == "discover") {
    HandleDiscover(request, std::move(done));
  } else if (op == "status") {
    done(HandleStatus(), true);
  } else if (op == "sleep" && options_.enable_debug_ops) {
    HandleSleep(request, std::move(done));
  } else if (op == "shutdown") {
    done(RenderShutdownResponse(), false);
    RequestShutdown();
  } else {
    done(RenderErrorResponse(
             op, Status::InvalidArgument("unknown op \"" + op + "\"")),
         true);
  }
}

std::string FdxServer::HandleOpen(const JsonValue& request) {
  const JsonValue* schema_json = request.Find("schema");
  if (schema_json == nullptr) {
    return RenderErrorResponse(
        "open", Status::InvalidArgument("open needs a \"schema\" array"));
  }
  Result<Schema> schema = ParseSchemaJson(*schema_json);
  if (!schema.ok()) return RenderErrorResponse("open", schema.status());

  FdxOptions fdx_options = options_.fdx;
  if (const JsonValue* options_json = request.Find("options")) {
    Result<FdxOptions> parsed = ParseOptionsJson(*options_json, fdx_options);
    if (!parsed.ok()) return RenderErrorResponse("open", parsed.status());
    fdx_options = std::move(parsed).value();
  }

  // `storage` is checked and echoed but chooses nothing: with a state
  // dir every session keeps its rows in a spilled store, and without one
  // no session keeps rows.
  const std::string storage = request.StringOr("storage", "memory");
  if (storage != "memory" && storage != "chunked") {
    return RenderErrorResponse(
        "open", Status::InvalidArgument("open: unknown storage \"" + storage +
                                        "\" (want \"memory\" or \"chunked\")"));
  }

  Result<std::shared_ptr<DatasetSession>> session =
      sessions_->Open(std::move(schema).value(), fdx_options);
  if (!session.ok()) return RenderErrorResponse("open", session.status());

  if (durable()) {
    std::lock_guard<std::mutex> lock(session.value()->mu);
    Status created = CreateSessionStoreLocked(session.value().get());
    if (!created.ok()) {
      snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
      (void)RemoveDirectoryRecursive(SessionStoreDir(session.value()->id));
      sessions_->Close(session.value()->id);
      return RenderErrorResponse("open", created);
    }
    snapshot_writes_.fetch_add(1, std::memory_order_relaxed);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("open");
  json.Key("session");
  json.String(session.value()->id);
  if (storage != "memory") {
    json.Key("storage");
    json.String(storage);
  }
  json.Key("columns");
  json.Integer(static_cast<int64_t>(session.value()->fdx.schema().size()));
  json.EndObject();
  return json.TakeString();
}

Status FdxServer::CreateSessionStoreLocked(DatasetSession* session) {
  FDX_ASSIGN_OR_RETURN(
      ChunkedTable store,
      ChunkedTable::Create(session->fdx.schema(), SessionStoreDir(session->id),
                           options_.store_compression));
  // The session file comes second: it is what names the store to a
  // restart, so a crash between the two leaves an orphan store that the
  // restart deletes.
  FDX_RETURN_IF_ERROR(
      WriteFileAtomic(SessionSnapshotPath(session->id),
                      EncodeSessionFile(session->id, session->fdx,
                                        session->content.Hex())));
  session->store = std::make_unique<ChunkedTable>(std::move(store));
  return Status::OK();
}

Status FdxServer::CommitBatchLocked(DatasetSession* session,
                                    const Table& batch) {
  // Transform, commit, merge: nothing changes before the commit, so an
  // append whose commit fails leaves the session as it was.
  FDX_ASSIGN_OR_RETURN(TransformCounts counts,
                       session->fdx.TransformBatch(batch));
  Fingerprint content = session->content;
  content.UpdateString("batch");
  UpdateTableFingerprint(&content, batch);
  if (durable()) {
    if (session->store == nullptr) {
      return Status::Unavailable("session " + session->id +
                                 " is still opening; retry");
    }
    // The manifest rename is the append's one commit point, and the
    // manifest carries the content fingerprint that restart verifies.
    Status committed = session->store->AppendBatch(batch, content.Hex());
    if (!committed.ok()) {
      snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
      return committed;
    }
    snapshot_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  session->content = content;
  session->fdx.Merge(counts, batch.num_rows());
  return Status::OK();
}

std::string FdxServer::ApplyAppendLocked(DatasetSession* session,
                                         const Table& batch) {
  Status appended = CommitBatchLocked(session, batch);
  if (!appended.ok()) return RenderErrorResponse("append", appended);

  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("append");
  json.Key("session");
  json.String(session->id);
  json.Key("rows");
  json.Integer(static_cast<int64_t>(batch.num_rows()));
  json.Key("total_rows");
  json.Integer(static_cast<int64_t>(session->fdx.total_rows()));
  json.Key("batches");
  json.Integer(static_cast<int64_t>(session->fdx.total_batches()));
  json.EndObject();
  return json.TakeString();
}

void FdxServer::HandleAppend(const JsonValue& request,
                             EventLoop::DoneFn done) {
  Result<AppendPlan> plan_or = PlanAppend(request, sessions_.get());
  if (!plan_or.ok()) {
    done(RenderErrorResponse("append", plan_or.status()), true);
    return;
  }
  auto plan = std::make_shared<AppendPlan>(std::move(plan_or).value());
  if (!durable()) {
    // An in-memory append writes nothing, so it runs here unless a
    // worker holds the session mutex (say, for a whole solve): try_lock
    // moves that case to the queue instead of stalling every connection
    // on this loop behind one session.
    Status parsed = plan->Parse();
    if (!parsed.ok()) {
      done(RenderErrorResponse("append", parsed), true);
      return;
    }
    std::unique_lock<std::mutex> lock(plan->session->mu, std::try_to_lock);
    if (lock.owns_lock()) {
      std::string response =
          ApplyAppendLocked(plan->session.get(), plan->batch);
      lock.unlock();
      done(std::move(response), true);
      return;
    }
  }
  // A durable append always runs on a worker, parse to commit, so the
  // I/O thread never writes or fsyncs.
  SubmitJob(
      "append",
      [this, plan] {
        Status parsed = plan->Parse();
        if (!parsed.ok()) return RenderErrorResponse("append", parsed);
        std::lock_guard<std::mutex> lock(plan->session->mu);
        return ApplyAppendLocked(plan->session.get(), plan->batch);
      },
      std::move(done));
}

std::string FdxServer::SessionDiscoverKeyLocked(const DatasetSession& session) {
  // The solve lineage is part of the key because warm-started solves are
  // tolerance-equal, not byte-equal, to cold ones. The lineage is the one
  // the answer would carry: the current one on a repeat discover, and a
  // cold solve's when nothing would seed it, so a restarted session finds
  // the cold answer its cache entry holds.
  return "sess|" + session.content.Hex() + "|" +
         CanonicalOptionsKey(session.fdx.options()) + "|" +
         session.fdx.NextSolveStateKey();
}

std::string FdxServer::RunSessionDiscover(
    const std::shared_ptr<DatasetSession>& session) {
  // Solve under the session lock, then file the payload under the
  // post-solve key: the content and lineage the result was actually
  // produced with. A batch appended between admission and execution
  // therefore cannot file the newer result under the older
  // fingerprint, and payloads from different solve histories never
  // collide.
  std::lock_guard<std::mutex> lock(session->mu);
  Result<FdxResult> result = session->fdx.CurrentFds();
  if (!result.ok()) return RenderErrorResponse("discover", result.status());
  const std::string job_key = SessionDiscoverKeyLocked(*session);
  std::string rendered = RenderDiscoverResponse(
      session->fdx.schema(), session->fdx.total_rows(), result.value());
  cache_->Insert(job_key, rendered);
  return rendered;
}

std::string FdxServer::RunTableDiscover(
    const std::shared_ptr<const Table>& table, const FdxOptions& options,
    const std::string& key) {
  FdxDiscoverer discoverer(options);
  Result<FdxResult> result = discoverer.Discover(*table);
  if (!result.ok()) return RenderErrorResponse("discover", result.status());
  std::string rendered = RenderDiscoverResponse(
      table->schema(), table->num_rows(), result.value());
  cache_->Insert(key, rendered);
  return rendered;
}

void FdxServer::HandleDiscover(const JsonValue& request,
                               EventLoop::DoneFn done) {
  Result<DiscoverPlan> plan_or =
      PlanDiscover(request, sessions_.get(), options_.fdx);
  if (!plan_or.ok()) {
    done(RenderErrorResponse("discover", plan_or.status()), true);
    return;
  }
  DiscoverPlan plan = std::move(plan_or).value();

  // A cache hit skips the job queue entirely. It is also exempt from
  // shedding, because serving it costs less than the rejection would.
  std::string payload;
  std::function<std::string(double)> body;
  if (plan.session != nullptr) {
    // The session key needs the session lock, and on the I/O thread
    // only a try_lock is affordable — a worker may hold the mutex for a
    // whole solve, and a blocking lock here would stall every
    // connection on this loop behind one session. On contention the
    // discover goes straight to the queue, which is where a non-cached
    // discover was headed anyway.
    std::unique_lock<std::mutex> lock(plan.session->mu, std::try_to_lock);
    if (lock.owns_lock()) {
      const std::string key = SessionDiscoverKeyLocked(*plan.session);
      lock.unlock();
      if (cache_->Lookup(key, &payload)) {
        done(std::move(payload), true);
        return;
      }
    }
    body = [this, session = plan.session](double /*remaining*/) {
      return RunSessionDiscover(session);
    };
  } else {
    if (cache_->Lookup(plan.table_key, &payload)) {
      done(std::move(payload), true);
      return;
    }
    body = [this, table = plan.table, options = plan.table_options,
            key = plan.table_key](double remaining) mutable {
      // Feed what is left of the request deadline into the solver's own
      // wall-clock budget so an in-flight job cannot overrun the
      // deadline it was admitted under.
      if (remaining > 0.0 && (options.time_budget_seconds <= 0.0 ||
                              options.time_budget_seconds > remaining)) {
        options.time_budget_seconds = remaining;
      }
      return RunTableDiscover(table, options, key);
    };
  }
  Status shed = CheckShed();
  if (!shed.ok()) {
    done(RenderErrorResponse("discover", shed,
                             options_.shed_retry_after_seconds),
         true);
    return;
  }
  SubmitJob("discover",
            WithDeadline("discover", RequestDeadlineSeconds(request),
                         std::move(body)),
            std::move(done));
}

std::string FdxServer::HandleStatus() {
  JsonWriter json;
  json.BeginObject();
  json.Key("ok");
  json.Bool(true);
  json.Key("op");
  json.String("status");
  json.Key("uptime_seconds");
  json.Number(uptime_.ElapsedSeconds());
  json.Key("connections");
  json.Integer(static_cast<int64_t>(connections_.load()));
  json.Key("requests");
  json.Integer(static_cast<int64_t>(requests_.load()));
  json.Key("requests_by_op");
  json.BeginObject();
  for (size_t k = 0; k < static_cast<size_t>(RequestKind::kCount); ++k) {
    json.Key(RequestKindName(static_cast<RequestKind>(k)));
    json.Integer(static_cast<int64_t>(
        requests_by_kind_[k].load(std::memory_order_relaxed)));
  }
  json.EndObject();
  json.Key("accept_faults");
  json.Integer(static_cast<int64_t>(accept_faults_.load()));
  json.Key("io");
  json.BeginObject();
  json.Key("io_threads");
  json.Integer(static_cast<int64_t>(event_loops_.size()));
  json.Key("connections_live");
  json.Integer(static_cast<int64_t>(live_connections()));
  json.Key("max_pipeline_depth");
  json.Integer(static_cast<int64_t>(options_.max_pipeline_depth));
  json.Key("accept_transient_errors");
  json.Integer(static_cast<int64_t>(accept_transient_errors()));
  json.Key("connections_aborted");
  json.Integer(static_cast<int64_t>(aborted_connections()));
  json.EndObject();
  json.Key("queue");
  json.BeginObject();
  json.Key("workers");
  json.Integer(static_cast<int64_t>(queue_->workers()));
  json.Key("capacity");
  json.Integer(static_cast<int64_t>(queue_->capacity()));
  json.Key("active");
  json.Integer(static_cast<int64_t>(queue_->active()));
  json.Key("executed");
  json.Integer(static_cast<int64_t>(queue_->executed()));
  json.Key("rejected");
  json.Integer(static_cast<int64_t>(queue_->rejected()));
  json.EndObject();
  json.Key("cache");
  json.BeginObject();
  json.Key("size");
  json.Integer(static_cast<int64_t>(cache_->size()));
  json.Key("capacity");
  json.Integer(static_cast<int64_t>(cache_->capacity()));
  json.Key("hits");
  json.Integer(static_cast<int64_t>(cache_->hits()));
  json.Key("misses");
  json.Integer(static_cast<int64_t>(cache_->misses()));
  json.Key("evictions");
  json.Integer(static_cast<int64_t>(cache_->evictions()));
  json.Key("shards");
  json.BeginArray();
  for (size_t shard = 0; shard < cache_->shards(); ++shard) {
    const ResultCache::ShardStats stats = cache_->shard_stats(shard);
    json.BeginObject();
    json.Key("size");
    json.Integer(static_cast<int64_t>(stats.size));
    json.Key("hits");
    json.Integer(static_cast<int64_t>(stats.hits));
    json.Key("misses");
    json.Integer(static_cast<int64_t>(stats.misses));
    json.Key("evictions");
    json.Integer(static_cast<int64_t>(stats.evictions));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("sessions");
  json.BeginObject();
  json.Key("open");
  json.Integer(static_cast<int64_t>(sessions_->size()));
  json.Key("max");
  json.Integer(static_cast<int64_t>(sessions_->max_sessions()));
  json.Key("shards");
  json.Integer(static_cast<int64_t>(sessions_->shards()));
  json.Key("opened");
  json.Integer(static_cast<int64_t>(sessions_->opened()));
  json.Key("evicted");
  json.Integer(static_cast<int64_t>(sessions_->evicted()));
  json.EndObject();
  const SessionRegistry::SolverTotals solver = sessions_->SolverStats();
  json.Key("solver");
  json.BeginObject();
  json.Key("solves");
  json.Integer(static_cast<int64_t>(solver.solves));
  json.Key("warm_started");
  json.Integer(static_cast<int64_t>(solver.warm_solves));
  json.Key("memo_hits");
  json.Integer(static_cast<int64_t>(solver.memo_hits));
  json.Key("newton_solves");
  json.Integer(static_cast<int64_t>(solver.newton_solves));
  json.EndObject();
  json.Key("shed");
  json.BeginObject();
  json.Key("queue");
  json.Integer(static_cast<int64_t>(shed_queue()));
  json.Key("memory");
  json.Integer(static_cast<int64_t>(shed_memory()));
  json.Key("deadline");
  json.Integer(static_cast<int64_t>(shed_deadline()));
  json.EndObject();
  json.Key("durability");
  json.BeginObject();
  json.Key("enabled");
  json.Bool(durable());
  json.Key("sessions_recovered");
  json.Integer(static_cast<int64_t>(sessions_recovered()));
  json.Key("sessions_recovery_failed");
  json.Integer(static_cast<int64_t>(sessions_recovery_failed()));
  json.Key("cache_entries_restored");
  json.Integer(static_cast<int64_t>(cache_entries_restored()));
  json.Key("snapshot_writes");
  json.Integer(static_cast<int64_t>(snapshot_writes()));
  json.Key("snapshot_failures");
  json.Integer(static_cast<int64_t>(snapshot_failures()));
  json.Key("orphan_stores_removed");
  json.Integer(static_cast<int64_t>(orphan_stores_removed()));
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

void FdxServer::HandleSleep(const JsonValue& request, EventLoop::DoneFn done) {
  const double seconds = request.NumberOr("seconds", 0.05);
  SubmitJob("sleep",
            WithDeadline("sleep", RequestDeadlineSeconds(request),
                         [seconds](double /*remaining*/) {
                           return SleepBody(seconds);
                         }),
            std::move(done));
}

std::string FdxServer::SessionsDir() const {
  return options_.state_dir + "/sessions";
}

std::string FdxServer::SessionSnapshotPath(const std::string& id) const {
  return SessionsDir() + "/" + id + ".json";
}

std::string FdxServer::CacheSnapshotPath() const {
  return options_.state_dir + "/cache.json";
}

std::string FdxServer::StoresDir() const {
  return options_.state_dir + "/stores";
}

std::string FdxServer::SessionStoreDir(const std::string& id) const {
  return StoresDir() + "/" + id;
}

Status FdxServer::RestoreState() {
  FDX_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ListDirectory(SessionsDir()));
  std::set<std::string> restored;
  for (const std::string& name : names) {
    // Skip leftovers of interrupted atomic writes ("*.json.tmp.<pid>")
    // and anything else that is not a session file: its id names the
    // store a failed restore deletes ("...json" would name DIR itself).
    if (name.size() < 6 || name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    const std::string id = name.substr(0, name.size() - 5);
    if (!IsSessionId(id)) continue;
    Status status = RestoreSession(id);
    if (status.ok()) {
      restored.insert(id);
      sessions_recovered_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Consistent or absent: the session file and its store go together.
    std::fprintf(stderr, "fdxd: dropping session %s: %s\n",
                 SessionSnapshotPath(id).c_str(), status.ToString().c_str());
    (void)RemoveFile(SessionSnapshotPath(id));
    (void)RemoveDirectoryRecursive(SessionStoreDir(id));
    sessions_recovery_failed_.fetch_add(1, std::memory_order_relaxed);
  }

  // A crash between an open's store and its session file leaves a store
  // that no session file names.
  FDX_ASSIGN_OR_RETURN(std::vector<std::string> stores,
                       ListSubdirectories(StoresDir()));
  for (const std::string& id : stores) {
    if (restored.count(id) != 0) continue;
    std::fprintf(stderr, "fdxd: removing store %s: no session file names it\n",
                 SessionStoreDir(id).c_str());
    (void)RemoveDirectoryRecursive(SessionStoreDir(id));
    orphan_stores_removed_.fetch_add(1, std::memory_order_relaxed);
  }

  Result<std::string> cache_text = ReadFileToString(CacheSnapshotPath());
  if (cache_text.ok()) {
    Result<std::vector<std::pair<std::string, std::string>>> entries =
        DecodeCacheSnapshot(cache_text.value());
    if (entries.ok()) {
      for (auto& [key, payload] : entries.value()) {
        cache_->Insert(key, std::move(payload));
      }
      cache_entries_restored_.fetch_add(entries.value().size(),
                                        std::memory_order_relaxed);
    } else {
      // A torn cache spill only costs warm starts, never correctness.
      (void)RemoveFile(CacheSnapshotPath());
    }
  }
  return Status::OK();
}

Status FdxServer::RestoreSession(const std::string& id) {
  FDX_ASSIGN_OR_RETURN(std::string text,
                       ReadFileToString(SessionSnapshotPath(id)));
  FDX_ASSIGN_OR_RETURN(SessionSnapshot snapshot, DecodeSessionSnapshot(text));
  if (snapshot.id != id) {
    return Status::InvalidArgument("session file holds session \"" +
                                   snapshot.id + "\"");
  }
  // An older fdxd kept a memory session's rows in its session file
  // (decoding verified them against its content fingerprint). They move
  // into a fresh store, rebuilding any that a crash left half-migrated.
  const bool legacy = snapshot.storage == "memory";
  if (legacy) (void)RemoveDirectoryRecursive(SessionStoreDir(id));
  FDX_ASSIGN_OR_RETURN(
      ChunkedTable store,
      legacy ? ChunkedTable::Create(snapshot.schema, SessionStoreDir(id),
                                    options_.store_compression)
             : ChunkedTable::Open(SessionStoreDir(id)));
  if (store.schema().names() != snapshot.schema.names()) {
    return Status::Internal(
        "chunk store schema disagrees with the session file");
  }
  // The content fingerprint of the last acknowledged append. A store
  // without a commit string (no append yet, or written by an older fdxd,
  // which kept the current fingerprint in the session file) answers to
  // the session file.
  const std::string committed =
      store.commit().empty() ? snapshot.content_hex : store.commit();
  FDX_ASSIGN_OR_RETURN(
      std::shared_ptr<DatasetSession> session,
      sessions_->Restore(id, snapshot.schema, snapshot.options));
  std::lock_guard<std::mutex> lock(session->mu);
  const std::string empty_content_hex = session->content.Hex();
  session->store = std::make_unique<ChunkedTable>(std::move(store));
  Status replayed = [&]() -> Status {
    if (legacy) {
      for (const Table& batch : snapshot.batches) {
        FDX_RETURN_IF_ERROR(CommitBatchLocked(session.get(), batch));
      }
      // Only now, with every row committed to the store, does the
      // session file stop holding them.
      return WriteFileAtomic(
          SessionSnapshotPath(id),
          EncodeSessionFile(id, session->fdx, empty_content_hex));
    }
    // Open() verified every chunk; the replay must reproduce the commit.
    for (size_t i = 0; i < session->store->num_chunks(); ++i) {
      FDX_ASSIGN_OR_RETURN(Table batch, session->store->ReadChunkValues(i));
      FDX_RETURN_IF_ERROR(session->fdx.Append(batch));
      session->content.UpdateString("batch");
      UpdateTableFingerprint(&session->content, batch);
    }
    if (session->content.Hex() != committed) {
      return Status::Internal(
          "replayed chunks do not reproduce the committed content "
          "fingerprint");
    }
    return Status::OK();
  }();
  if (!replayed.ok()) sessions_->Close(id);
  return replayed;
}

void FdxServer::PersistCache() {
  if (!durable() || cache_ == nullptr) return;
  const std::string text = EncodeCacheSnapshot(cache_->Snapshot());
  if (WriteFileAtomic(CacheSnapshotPath(), text).ok()) {
    snapshot_writes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FdxServer::SnapshotSpillLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.snapshot_interval_seconds > 0.0
          ? options_.snapshot_interval_seconds
          : 5.0);
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  while (!snapshot_stop_) {
    snapshot_cv_.wait_for(lock, interval, [this] { return snapshot_stop_; });
    if (snapshot_stop_) break;
    lock.unlock();
    PersistCache();
    lock.lock();
  }
}

double FdxServer::RequestDeadlineSeconds(const JsonValue& request) const {
  return request.NumberOr("deadline_seconds",
                          options_.default_deadline_seconds);
}

std::function<std::string()> FdxServer::WithDeadline(
    std::string op, double deadline_seconds,
    std::function<std::string(double)> body) {
  if (deadline_seconds <= 0.0) {
    return [body = std::move(body)] { return body(0.0); };
  }
  // The deadline starts at admission; by the time a worker picks the
  // job up it may already be hopeless — answering Timeout immediately
  // is cheaper for everyone than computing a result the client gave up
  // on (and it frees the worker for requests that can still make it).
  auto deadline = std::make_shared<Deadline>(deadline_seconds);
  return [this, op = std::move(op), deadline, body = std::move(body)] {
    if (deadline->Expired()) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      return RenderErrorResponse(
          op,
          Status::Timeout("server deadline (" +
                          std::to_string(deadline->budget_seconds()) +
                          "s) expired while the request was queued"),
          options_.shed_retry_after_seconds);
    }
    const double left = deadline->remaining_seconds();
    return body(left > 0.0 ? left : 1e-9);
  };
}

Status FdxServer::CheckShed() {
  if (options_.shed_queue_watermark > 0.0 && queue_ != nullptr) {
    const size_t limit = std::max<size_t>(
        1, static_cast<size_t>(options_.shed_queue_watermark *
                               static_cast<double>(queue_->capacity())));
    if (queue_->active() >= limit) {
      shed_queue_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "overloaded: queue depth " + std::to_string(queue_->active()) +
          " crossed the shed watermark (" + std::to_string(limit) + " of " +
          std::to_string(queue_->capacity()) + "); retry later");
    }
  }
  if (options_.shed_max_rss_mb > 0) {
    const uint64_t rss = CurrentRssBytes();
    const uint64_t limit =
        static_cast<uint64_t>(options_.shed_max_rss_mb) * 1024 * 1024;
    if (rss > limit) {
      shed_memory_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "overloaded: resident memory " + std::to_string(rss >> 20) +
          " MiB crossed the shed watermark (" +
          std::to_string(options_.shed_max_rss_mb) + " MiB); retry later");
    }
  }
  return Status::OK();
}

void FdxServer::SubmitJob(const std::string& op,
                          std::function<std::string()> body,
                          EventLoop::DoneFn done) {
  if (FaultTriggered(kFaultServiceEnqueue)) {
    done(RenderErrorResponse(
             op, Status::Internal("injected fault at service.enqueue")),
         true);
    return;
  }
  // The completion is shared between the job and the rejection path;
  // exactly one of them runs.
  auto done_ptr = std::make_shared<EventLoop::DoneFn>(std::move(done));
  Status submitted = queue_->Submit(
      [body = std::move(body), done_ptr] { (*done_ptr)(body(), true); });
  if (!submitted.ok()) {
    (*done_ptr)(RenderErrorResponse(op, submitted), true);
  }
}

size_t FdxServer::live_connections() const {
  size_t live = 0;
  for (const auto& loop : event_loops_) live += loop->live_connections();
  return live;
}

uint64_t FdxServer::accept_transient_errors() const {
  uint64_t total = 0;
  for (const auto& loop : event_loops_) total += loop->accept_transient_errors();
  return total;
}

uint64_t FdxServer::aborted_connections() const {
  uint64_t total = 0;
  for (const auto& loop : event_loops_) total += loop->aborted_connections();
  return total;
}

void FdxServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void FdxServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  std::lock_guard<std::mutex> lock(teardown_mu_);
  if (!teardown_done_) {
    TeardownLocked();
    teardown_done_ = true;
  }
}

void FdxServer::Shutdown() {
  RequestShutdown();
  std::lock_guard<std::mutex> lock(teardown_mu_);
  if (!teardown_done_) {
    TeardownLocked();
    teardown_done_ = true;
  }
}

void FdxServer::TeardownLocked() {
  // 1. Stop admitting connections and jobs. In-flight requests from live
  //    connections now get structured "draining" rejections.
  accepting_.store(false);
  if (queue_) queue_->CloseIntake();

  // 2. Wake the accept path. The event loops discover the dead listener
  //    on their next poll.
  listener_.Shutdown();

  // 3. Drain in-flight jobs under the budget; their responses are still
  //    deliverable because client sockets are untouched so far. Every
  //    job's completion is in a loop mailbox once Drain returns (jobs
  //    post before they count as finished).
  if (queue_) {
    drained_cleanly_.store(queue_->Drain(options_.drain_seconds));
  }

  // 3b. Durable mode: retire the periodic spill thread and take one
  //     final cache snapshot now that the queue is quiet. Sessions need
  //     no flush: every acknowledged append is already committed to its
  //     store.
  if (durable()) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      snapshot_stop_ = true;
    }
    snapshot_cv_.notify_all();
    if (snapshot_thread_.joinable()) snapshot_thread_.join();
    PersistCache();
  }

  // 4. Ask each loop to deliver queued completions, flush write buffers
  //    to slow readers (bounded), close, and exit.
  for (auto& loop : event_loops_) loop->RequestStop();
  for (auto& loop : event_loops_) loop->Join();

  listener_.Close();
}

}  // namespace fdx
