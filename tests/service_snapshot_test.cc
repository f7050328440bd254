// Durability tests: the session snapshot codec (exact round-trips,
// loud verification failures), SessionRegistry::Restore semantics, and
// the end-to-end crash/restart contract — a restarted server must serve
// byte-identical discover results from a replayed --state-dir, with or
// without the spilled result cache.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fdx.h"
#include "data/table.h"
#include "util/json_parser.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_registry.h"
#include "service/snapshot.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/socket.h"
#include "util/string_util.h"

namespace fdx {
namespace {

Schema TestSchema() { return Schema({"a", "b", "c"}); }

/// Mixed-type batch: ints, a double that is integral (1e6), a double
/// needing all 17 digits, a string, and a null — every case the typed
/// cell codec exists for.
Table MixedBatch() {
  Table table(TestSchema());
  table.AppendRow({Value(int64_t{1}), Value(0.1 + 0.2), Value(std::string("x"))});
  table.AppendRow({Value(int64_t{2}), Value(1e6), Value::Null()});
  table.AppendRow({Value(int64_t{3}), Value(-2.5), Value(std::string("y,\"z\""))});
  return table;
}

Table IntBatch(int offset) {
  Table table(TestSchema());
  for (int i = 0; i < 4; ++i) {
    table.AppendRow({Value(int64_t{i + offset}), Value(int64_t{2 * (i + offset)}),
                     Value(int64_t{i % 3})});
  }
  return table;
}

/// Every member CanonicalOptionsKey covers, each off its default, plus
/// the members outside the key that the file still carries.
FdxOptions NonDefaultOptions() {
  FdxOptions options;
  options.estimator = StructureEstimator::kSequentialLasso;
  options.lambda = 0.123456789012345678;  // needs %.17g to survive
  options.sparsity_threshold = 0.01;
  options.relative_threshold = 0.55;
  options.minimum_column_weight = 0.07;
  options.zero_tolerance = 1e-9;
  options.normalize_covariance = false;
  options.ordering = OrderingMethod::kAmd;
  options.transform.seed = 18446744073709551557ull;  // above 2^53
  options.transform.max_pairs_per_attribute = 64;
  options.transform.pooled_covariance = true;
  options.transform.threads = 2;
  options.glasso.lambda = 0.04;
  options.glasso.max_iterations = 77;
  options.glasso.tolerance = 2e-5;
  options.glasso.diagonal_ridge = 3e-6;
  options.glasso.lasso_max_iterations = 400;
  options.glasso.lasso_tolerance = 2e-7;
  options.glasso.solver = GlassoSolver::kNewton;
  options.glasso.newton_max_iterations = 40;
  options.glasso.newton_min_block = 16;
  options.glasso.newton_dense_threshold = 0.25;
  options.glasso.lambda_path = false;
  options.threads = 3;
  options.time_budget_seconds = 7.5;
  options.reuse_solver_state = false;
  options.recovery.enabled = false;
  options.recovery.max_ridge_retries = 5;
  options.recovery.ridge_multiplier = 4.0;
  options.recovery.max_ridge = 0.5;
  options.recovery.allow_estimator_fallback = false;
  options.recovery.allow_quarantine = false;
  options.recovery.degenerate_variance_floor = 1e-10;
  return options;
}

std::string SessionContentHex(const std::vector<Table>& batches) {
  Fingerprint fp;
  fp.UpdateString("session");
  for (const Table& batch : batches) {
    fp.UpdateString("batch");
    UpdateTableFingerprint(&fp, batch);
  }
  return fp.Hex();
}

std::string EncodeSession(const std::string& id, const FdxOptions& options,
                          const std::vector<Table>& batches) {
  std::vector<std::string> batches_json;
  for (const Table& batch : batches) {
    batches_json.push_back(EncodeBatchRows(batch));
  }
  return EncodeSessionSnapshot(id, TestSchema(), options,
                               CanonicalOptionsKey(options),
                               SessionContentHex(batches), batches_json);
}

TEST(SnapshotCodecTest, SessionRoundTripPreservesEverything) {
  const std::vector<Table> batches = {MixedBatch(), IntBatch(10)};
  const FdxOptions options = NonDefaultOptions();
  const std::string text = EncodeSession("s-3", options, batches);

  auto decoded = DecodeSessionSnapshot(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, "s-3");
  EXPECT_EQ(decoded->schema.names(), TestSchema().names());
  EXPECT_EQ(decoded->options_key, CanonicalOptionsKey(options));
  EXPECT_EQ(decoded->content_hex, SessionContentHex(batches));
  EXPECT_DOUBLE_EQ(decoded->options.lambda, options.lambda);
  EXPECT_DOUBLE_EQ(decoded->options.time_budget_seconds,
                   options.time_budget_seconds);
  EXPECT_EQ(decoded->options.threads, options.threads);
  EXPECT_EQ(decoded->options.transform.threads, options.transform.threads);
  // Each segment of the decoded options' key must differ from the
  // default's: a knob added to the key but not to the codec decodes as
  // its default and fails here (or fails the decode's own key check).
  const std::vector<std::string> defaults =
      Split(CanonicalOptionsKey(FdxOptions{}), ';');
  const std::vector<std::string> segments =
      Split(CanonicalOptionsKey(decoded->options), ';');
  ASSERT_EQ(segments.size(), defaults.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_NE(segments[i], defaults[i])
        << "NonDefaultOptions leaves this key segment at its default";
  }
  ASSERT_EQ(decoded->batches.size(), 2u);
  // Cell-exact replay, including the null and the non-representable
  // double. The fingerprint equality below is the strong form: the
  // decoded batches hash to the same content id as the originals, so a
  // restarted server reconstructs the *identical* session fingerprint.
  EXPECT_EQ(SessionContentHex(decoded->batches), SessionContentHex(batches));
  EXPECT_TRUE(decoded->batches[0].cell(1, 2).is_null());
  EXPECT_EQ(decoded->batches[0].cell(0, 1).AsDouble(), 0.1 + 0.2);
  // 1e6 must come back as a *double*, not get re-typed to int (that
  // would change the fingerprint).
  EXPECT_EQ(decoded->batches[0].cell(1, 1).type(), ValueType::kDouble);
}

TEST(SnapshotCodecTest, TamperedOptionsFailVerification) {
  const std::string text = EncodeSession("s-1", NonDefaultOptions(),
                                         {IntBatch(0)});
  // Flip the persisted lambda; the stored options_key no longer matches.
  std::string tampered = text;
  const size_t at = tampered.find("0.12345678901234568");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 1, "9");
  auto decoded = DecodeSessionSnapshot(tampered);
  EXPECT_FALSE(decoded.ok());
}

TEST(SnapshotCodecTest, TamperedBatchFailsVerification) {
  const std::string text = EncodeSession("s-1", FdxOptions{}, {IntBatch(0)});
  std::string tampered = text;
  const size_t at = tampered.find("[\"i\",\"2\"]");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 9, "[\"i\",\"7\"]");
  auto decoded = DecodeSessionSnapshot(tampered);
  EXPECT_FALSE(decoded.ok());
}

TEST(SnapshotCodecTest, TruncatedSnapshotFailsLoudly) {
  const std::string text = EncodeSession("s-1", FdxOptions{}, {IntBatch(0)});
  for (const size_t keep : {text.size() / 4, text.size() / 2, text.size() - 2}) {
    auto decoded = DecodeSessionSnapshot(text.substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(SnapshotCodecTest, CacheRoundTripKeepsOrderAndBytes) {
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"tbl|abc|k", "{\"ok\":true,\"fds\":[]}"},
      {"sess|def|k|w", "payload with \"quotes\" and \n newline"},
      {"", ""},
  };
  auto decoded = DecodeCacheSnapshot(EncodeCacheSnapshot(entries));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, entries);

  auto empty = DecodeCacheSnapshot(EncodeCacheSnapshot({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  EXPECT_FALSE(DecodeCacheSnapshot("{\"version\":1,\"entries\":").ok());
}

TEST(SessionRegistryRestoreTest, RestoreReservesIdRange) {
  SessionRegistry registry(8, /*ttl_seconds=*/0.0);
  auto restored = registry.Restore("s-5", TestSchema(), FdxOptions{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->id, "s-5");
  // Fresh opens must never collide with a restored id.
  auto opened = registry.Open(TestSchema(), FdxOptions{});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value()->id, "s-6");
  // Duplicate restore is an error, not a silent replacement.
  EXPECT_FALSE(registry.Restore("s-5", TestSchema(), FdxOptions{}).ok());
}

TEST(SessionRegistryRestoreTest, RejectsMalformedIdsAndHonorsCap) {
  SessionRegistry registry(1, 0.0);
  EXPECT_FALSE(registry.Restore("", TestSchema(), FdxOptions{}).ok());
  EXPECT_FALSE(registry.Restore("x-1", TestSchema(), FdxOptions{}).ok());
  EXPECT_FALSE(registry.Restore("s-", TestSchema(), FdxOptions{}).ok());
  EXPECT_FALSE(registry.Restore("s-0", TestSchema(), FdxOptions{}).ok());
  EXPECT_FALSE(registry.Restore("s-1x", TestSchema(), FdxOptions{}).ok());
  ASSERT_TRUE(registry.Restore("s-1", TestSchema(), FdxOptions{}).ok());
  // The cap counts restored sessions too.
  auto over = registry.Restore("s-2", TestSchema(), FdxOptions{});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kUnavailable);
}

/// One-shot request helper (connect, one line out, one line in).
Result<std::string> Request(uint16_t port, const std::string& line) {
  FDX_ASSIGN_OR_RETURN(Socket sock, Socket::ConnectLoopback(port));
  FDX_RETURN_IF_ERROR(sock.SendAll(line + "\n"));
  std::string response;
  FDX_RETURN_IF_ERROR(sock.ReadLine(&response));
  return response;
}

std::string RowsJson(int rows, int modulus, int offset = 0) {
  std::string json = "[";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) json += ",";
    const int a = (i + offset) % modulus;
    json += "[" + std::to_string(a) + "," + std::to_string(2 * a) + "," +
            std::to_string(i % 3) + "]";
  }
  return json + "]";
}

class ServerRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    state_dir_ = ::testing::TempDir() + "fdx_state_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Start from an empty state dir even if a previous run left files.
    auto files = ListDirectory(state_dir_ + "/sessions");
    if (files.ok()) {
      for (const auto& name : files.value()) {
        (void)RemoveFile(state_dir_ + "/sessions/" + name);
      }
    }
    (void)RemoveFile(state_dir_ + "/cache.json");
  }

  ServerOptions DurableOptions() {
    ServerOptions options;
    options.state_dir = state_dir_;
    options.snapshot_interval_seconds = 60.0;  // spills only at teardown
    return options;
  }

  std::string state_dir_;
};

TEST_F(ServerRestartTest, RestartServesBitIdenticalDiscover) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    auto open =
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
    ASSERT_TRUE(open.ok() && JsonValue::Parse(*open)->BoolOr("ok", false))
        << (open.ok() ? *open : open.status().ToString());
    ASSERT_TRUE(Request(server.port(),
                        R"({"op":"append","session":"s-1","rows":)" +
                            RowsJson(24, 5) + "}")
                    .ok());
    ASSERT_TRUE(Request(server.port(),
                        R"({"op":"append","session":"s-1","rows":)" +
                            RowsJson(12, 5, 2) + "}")
                    .ok());
    auto cold =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(JsonValue::Parse(*cold)->BoolOr("ok", false)) << *cold;
    cold_response = *cold;
    EXPECT_GE(server.snapshot_writes(), 3u);  // open + two appends
    server.Shutdown();
  }

  // Restart A: warm — the spilled result cache answers directly.
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    EXPECT_GE(server.cache_entries_restored(), 1u);
    auto warm =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(*warm, cold_response);
    // The restored session accepts new appends (the moments replayed).
    auto append = Request(server.port(),
                          R"({"op":"append","session":"s-1","rows":)" +
                              RowsJson(8, 5) + "}");
    ASSERT_TRUE(append.ok());
    EXPECT_TRUE(JsonValue::Parse(*append)->BoolOr("ok", false)) << *append;
    EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 44);
    server.Shutdown();
  }
}

// Headerless CSV appends parse with synthetic positional column names;
// the server must rebind them to the session schema before
// fingerprinting, or the durability replay (which rebuilds batches
// under the session schema) can never reproduce the stored content
// hash. Regression: recovery used to fail for every CSV-fed session.
TEST_F(ServerRestartTest, CsvAppendSurvivesRestart) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")
            .ok());
    auto append = Request(
        server.port(),
        R"({"op":"append","session":"s-1","csv":"0,0,0\n1,2,1\n2,4,2\n1.5,x,\n"})");
    ASSERT_TRUE(append.ok());
    ASSERT_TRUE(JsonValue::Parse(*append)->BoolOr("ok", false)) << *append;
    auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(JsonValue::Parse(*cold)->BoolOr("ok", false)) << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(*warm, cold_response);
    server.Shutdown();
  }
}

TEST_F(ServerRestartTest, ColdRecomputeAfterRestartMatchesOriginal) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")
            .ok());
    ASSERT_TRUE(Request(server.port(),
                        R"({"op":"append","session":"s-1","rows":)" +
                            RowsJson(24, 5) + "}")
                    .ok());
    auto cold =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(JsonValue::Parse(*cold)->BoolOr("ok", false)) << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  // No cache spill available: force a genuine re-solve after replay.
  ASSERT_TRUE(RemoveFile(state_dir_ + "/cache.json").ok());
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.cache_entries_restored(), 0u);
    auto redo =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(redo.ok());
    EXPECT_EQ(*redo, cold_response)
        << "replayed session solved to different bytes";
    server.Shutdown();
  }
}

// A session opened with a non-default solver must come back with it:
// the options key covers the solver options, so a session file that
// dropped them could never reproduce the key and the session was lost.
TEST_F(ServerRestartTest, SolverOptionsSurviveRestart) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    auto open = Request(
        server.port(),
        R"({"op":"open","schema":["a","b","c"],"options":{"solver":"newton"}})");
    ASSERT_TRUE(open.ok() && JsonValue::Parse(*open)->BoolOr("ok", false))
        << (open.ok() ? *open : open.status().ToString());
    auto append = Request(server.port(),
                          R"({"op":"append","session":"s-1","rows":)" +
                              RowsJson(200, 7) + "}");
    ASSERT_TRUE(append.ok());
    ASSERT_TRUE(JsonValue::Parse(*append)->BoolOr("ok", false)) << *append;
    auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(JsonValue::Parse(*cold)->BoolOr("ok", false)) << *cold;
    EXPECT_NE(cold->find(R"("backend":"newton")"), std::string::npos)
        << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  // No cache spill: the restarted session must solve again, with the
  // solver it was opened with.
  ASSERT_TRUE(RemoveFile(state_dir_ + "/cache.json").ok());
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto redo = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(redo.ok());
    EXPECT_EQ(*redo, cold_response);
    server.Shutdown();
  }
}

TEST_F(ServerRestartTest, CorruptSnapshotIsDroppedNotFatal) {
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")
            .ok());
    server.Shutdown();
  }
  // Corrupt the snapshot on disk; the restart must drop it (and the
  // file), count the failure, and keep serving.
  const std::string path = state_dir_ + "/sessions/s-1.json";
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path, text.value().substr(0, text.value().size() / 2))
          .ok());
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 0u);
    EXPECT_EQ(server.sessions_recovery_failed(), 1u);
    EXPECT_FALSE(ReadFileToString(path).ok());  // deleted
    // The id space is clean again: a fresh open starts from s-1.
    auto open =
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(JsonValue::Parse(*open)->BoolOr("ok", false));
    server.Shutdown();
  }
}

TEST_F(ServerRestartTest, EvictionDeletesSnapshotFile) {
  ServerOptions options = DurableOptions();
  options.session_ttl_seconds = 0.05;
  FdxServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      Request(server.port(), R"({"op":"open","schema":["a","b","c"]})").ok());
  const std::string path = state_dir_ + "/sessions/s-1.json";
  ASSERT_TRUE(ReadFileToString(path).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Eviction runs on the next lookup that touches the session's shard —
  // the discover below finds it expired, evicts it, and fires the
  // server's eviction listener, which removes the snapshot file.
  auto gone = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(JsonValue::Parse(*gone)->BoolOr("ok", true)) << *gone;
  EXPECT_FALSE(ReadFileToString(path).ok())
      << "evicted session left its snapshot behind";
  server.Shutdown();
}

TEST_F(ServerRestartTest, StatusReportsDurabilityAndShedBlocks) {
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  auto status = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(status.ok());
  auto parsed = JsonValue::Parse(*status);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* durability = parsed->Find("durability");
  ASSERT_NE(durability, nullptr);
  EXPECT_TRUE(durability->BoolOr("enabled", false));
  const JsonValue* shed = parsed->Find("shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_DOUBLE_EQ(shed->NumberOr("queue", -1), 0);
  // The text report renders the new blocks too.
  const std::string text = RenderStatusTextReport(*parsed);
  EXPECT_NE(text.find("shed:"), std::string::npos);
  EXPECT_NE(text.find("durability:"), std::string::npos);
  server.Shutdown();
}

}  // namespace
}  // namespace fdx
