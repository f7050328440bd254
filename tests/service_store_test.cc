// fdxd sessions on the chunk store: with --state-dir every session keeps
// its rows in a spilled store whose manifest rename commits each append,
// and its session file names the store instead of embedding rows.
// Responses match whatever "storage" a session was opened with,
// restarts replay the chunks to bit-identical results, a failed commit
// answers an error and leaves the session as it was, state dirs of an
// older daemon migrate, and corrupted stores are dropped loudly instead
// of revived wrong.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/json_parser.h"
#include "util/socket.h"

namespace fdx {
namespace {

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

bool IsOk(const Result<std::string>& response) {
  if (!response.ok()) return false;
  auto parsed = JsonValue::Parse(*response);
  return parsed.ok() && parsed->BoolOr("ok", false);
}

class ChunkedSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    state_dir_ =
        ::testing::TempDir() + "fdx_store_state_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)RemoveDirectoryRecursive(state_dir_);
  }

  void TearDown() override { (void)RemoveDirectoryRecursive(state_dir_); }

  ServerOptions DurableOptions() {
    ServerOptions options;
    options.state_dir = state_dir_;
    options.snapshot_interval_seconds = 60.0;  // no background spills mid-test
    return options;
  }

  /// The "rows" a discover answers, or -1.
  static double DiscoverRows(uint16_t port, const std::string& session) {
    auto discover = Request(
        port, R"({"op":"discover","session":")" + session + R"("})");
    if (!IsOk(discover)) return -1;
    return JsonValue::Parse(*discover)->NumberOr("rows", -1);
  }

  std::string state_dir_;
};

/// An append of RowsJson(rows, modulus, offset) to `session`.
std::string AppendRows(const std::string& session, int rows, int modulus,
                       int offset = 0) {
  return R"({"op":"append","session":")" + session + R"(","rows":)" +
         RowsJson(rows, modulus, offset) + "}";
}

TEST_F(ChunkedSessionTest, RejectsUnknownStorage) {
  FdxServer server{ServerOptions{}};
  ASSERT_TRUE(server.Start().ok());
  auto open = Request(
      server.port(), R"({"op":"open","schema":["a","b"],"storage":"tape"})");
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(JsonValue::Parse(*open)->BoolOr("ok", true)) << *open;
  EXPECT_NE(open->find("unknown storage"), std::string::npos) << *open;
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, ChunkedSessionMatchesMemorySessionByteForByte) {
  // Non-durable server: chunked sessions work without a state dir (the
  // store keeps its chunks in memory) and must serve the exact bytes a
  // memory session serves for the same appends.
  FdxServer server{ServerOptions{}};
  ASSERT_TRUE(server.Start().ok());
  auto open_memory =
      Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(IsOk(open_memory)) << *open_memory;
  auto open_chunked = Request(
      server.port(),
      R"({"op":"open","schema":["a","b","c"],"storage":"chunked"})");
  ASSERT_TRUE(IsOk(open_chunked)) << *open_chunked;
  EXPECT_NE(open_chunked->find("\"storage\":\"chunked\""), std::string::npos)
      << *open_chunked;

  for (const char* session : {"s-1", "s-2"}) {
    auto a1 = Request(server.port(),
                      std::string(R"({"op":"append","session":")") + session +
                          R"(","rows":)" + RowsJson(24, 5) + "}");
    ASSERT_TRUE(IsOk(a1)) << *a1;
    auto a2 = Request(server.port(),
                      std::string(R"({"op":"append","session":")") + session +
                          R"(","rows":)" + RowsJson(12, 5, 2) + "}");
    ASSERT_TRUE(IsOk(a2)) << *a2;
  }
  auto memory = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  auto chunked = Request(server.port(), R"({"op":"discover","session":"s-2"})");
  ASSERT_TRUE(IsOk(memory)) << *memory;
  ASSERT_TRUE(IsOk(chunked)) << *chunked;
  EXPECT_EQ(*memory, *chunked);
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, SnapshotReferencesStoreInsteadOfEmbeddingRows) {
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  auto open = Request(
      server.port(),
      R"({"op":"open","schema":["a","b","c"],"storage":"chunked"})");
  ASSERT_TRUE(IsOk(open)) << *open;
  auto append =
      Request(server.port(), R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}");
  ASSERT_TRUE(IsOk(append)) << *append;

  // The chunk store holds the rows...
  auto manifest = ReadFileToString(state_dir_ + "/stores/s-1/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest->find("\"total_rows\":24"), std::string::npos)
      << *manifest;
  auto chunk = ReadFileToString(state_dir_ + "/stores/s-1/chunk-000000.bin");
  ASSERT_TRUE(chunk.ok());

  // ...and the session snapshot only references them: storage marker
  // present, no embedded batches.
  auto snapshot = ReadFileToString(state_dir_ + "/sessions/s-1.json");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot->find("\"storage\":\"chunked\""), std::string::npos)
      << *snapshot;
  EXPECT_EQ(snapshot->find("\"batches\""), std::string::npos) << *snapshot;
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, RestartReplaysChunksBitIdentically) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    auto open = Request(
        server.port(),
        R"({"op":"open","schema":["a","b","c"],"storage":"chunked"})");
    ASSERT_TRUE(IsOk(open)) << *open;
    // Mixed appends: rows and CSV (with a null and a type change).
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    ASSERT_TRUE(IsOk(Request(
        server.port(),
        R"({"op":"append","session":"s-1","csv":"0,0,0\n1,2,1\n2,4,2\n1.5,x,\n"})")));
    auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(cold)) << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  // Drop the spilled result cache: the restarted server must *recompute*
  // the same bytes from the replayed chunks, not just re-serve them.
  (void)RemoveFile(state_dir_ + "/cache.json");
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(*warm, cold_response);
    // The restored session keeps accepting appends, and the store keeps
    // growing through them.
    auto append =
        Request(server.port(), R"({"op":"append","session":"s-1","rows":)" +
                                   RowsJson(8, 5) + "}");
    ASSERT_TRUE(IsOk(append)) << *append;
    EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 36);
    auto manifest = ReadFileToString(state_dir_ + "/stores/s-1/manifest.json");
    ASSERT_TRUE(manifest.ok());
    EXPECT_NE(manifest->find("\"total_rows\":36"), std::string::npos)
        << *manifest;
    server.Shutdown();
  }
}

TEST_F(ChunkedSessionTest, EveryDurableSessionLivesOnTheStore) {
  // Memory or chunked at open, a durable session's file is written once
  // and names its store; its appends run on the worker pool and each
  // commits one chunk.
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  auto open = Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(IsOk(open)) << *open;
  EXPECT_EQ(open->find("\"storage\""), std::string::npos) << *open;
  const std::string path = state_dir_ + "/sessions/s-1.json";
  auto file = ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  EXPECT_NE(file->find("\"storage\":\"chunked\""), std::string::npos);
  EXPECT_EQ(file->find("\"batches\""), std::string::npos);
  const uint64_t executed = server.queue().executed();
  ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 24, 5))));
  ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 12, 5, 2))));
  // A job posts its response before it counts as executed.
  for (int i = 0; i < 200 && server.queue().executed() < executed + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.queue().executed(), executed + 2);
  EXPECT_EQ(ReadFileToString(path).value(), *file) << "session file rewritten";
  auto manifest = ReadFileToString(state_dir_ + "/stores/s-1/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest->find("\"total_rows\":36"), std::string::npos);
  EXPECT_NE(manifest->find("\"commit\":"), std::string::npos);
  EXPECT_EQ(server.snapshot_writes(), 3u);  // open + two commits
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, AcknowledgedAppendsSurviveABlockedSessionFile) {
  // An append's one commit point is its store's manifest. A daemon that
  // also rewrote the session file after the manifest acknowledged
  // appends whose rewrite failed, then lost them (memory session) or
  // dropped the session (chunked) at restart. Blocking the rewrite's
  // temp file with a directory must cost nothing now.
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(
        server.port(),
        R"({"op":"open","schema":["a","b","c"],"storage":"chunked"})")));
    for (const char* session : {"s-1", "s-2"}) {
      ASSERT_TRUE(IsOk(Request(server.port(), AppendRows(session, 24, 5))));
      ASSERT_TRUE(EnsureDirectory(state_dir_ + "/sessions/" + session +
                                  ".json.tmp." + std::to_string(::getpid()))
                      .ok());
      auto append = Request(server.port(), AppendRows(session, 12, 5, 2));
      ASSERT_TRUE(IsOk(append)) << *append;
      EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0),
                       36);
    }
    server.Shutdown();
  }
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 2u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  EXPECT_DOUBLE_EQ(DiscoverRows(server.port(), "s-1"), 36);
  EXPECT_DOUBLE_EQ(DiscoverRows(server.port(), "s-2"), 36);
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, FailedCommitAnswersAnErrorAndChangesNothing) {
  // A reference daemon without a state dir sees only the batches that
  // were acknowledged.
  std::string reference;
  {
    FdxServer server{ServerOptions{}};
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 24, 5))));
    ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 16, 4, 1))));
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(discover)) << *discover;
    reference = *discover;
    server.Shutdown();
  }
  // store.write visit 1 is the chunk file, visit 2 the manifest.
  for (const char* visit : {"1", "2"}) {
    SCOPED_TRACE(std::string("store.write:") + visit);
    (void)RemoveDirectoryRecursive(state_dir_);
    {
      FdxServer server(DurableOptions());
      ASSERT_TRUE(server.Start().ok());
      ASSERT_TRUE(IsOk(
          Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
      ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 24, 5))));
      ASSERT_TRUE(ArmFaults(std::string("store.write:") + visit).ok());
      auto failed = Request(server.port(), AppendRows("s-1", 12, 3, 7));
      DisarmFaults();
      ASSERT_TRUE(failed.ok());
      EXPECT_FALSE(JsonValue::Parse(*failed)->BoolOr("ok", true)) << *failed;
      EXPECT_NE(failed->find("injected fault"), std::string::npos) << *failed;
      EXPECT_EQ(server.snapshot_failures(), 1u);
      auto next = Request(server.port(), AppendRows("s-1", 16, 4, 1));
      ASSERT_TRUE(IsOk(next)) << *next;
      EXPECT_DOUBLE_EQ(JsonValue::Parse(*next)->NumberOr("total_rows", 0), 40);
      EXPECT_DOUBLE_EQ(JsonValue::Parse(*next)->NumberOr("batches", 0), 2);
      auto discover =
          Request(server.port(), R"({"op":"discover","session":"s-1"})");
      ASSERT_TRUE(discover.ok());
      EXPECT_EQ(*discover, reference);
      server.Shutdown();
    }
    (void)RemoveFile(state_dir_ + "/cache.json");  // re-solve, not replay
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(discover.ok());
    EXPECT_EQ(*discover, reference);
    server.Shutdown();
  }
}

/// Copies the checked-in state dir an older fdxd wrote into `dir`.
void CopyParentState(const std::string& dir) {
  std::filesystem::copy(std::string(FDX_SERVICE_FIXTURE_DIR) + "/parent_state",
                        dir, std::filesystem::copy_options::recursive);
}

std::string ParentDiscover(const std::string& session) {
  auto text = ReadFileToString(std::string(FDX_SERVICE_FIXTURE_DIR) +
                               "/parent_discover/" + session + ".json");
  EXPECT_TRUE(text.ok()) << session;
  return text.ok() ? *text : "";
}

TEST_F(ChunkedSessionTest, OlderStateDirMigratesToTheStore) {
  CopyParentState(state_dir_);
  // A crash mid-migration left a partial store for s-1, and a crash
  // mid-open a store that no session file names.
  ASSERT_TRUE(EnsureDirectory(state_dir_ + "/stores/s-1").ok());
  ASSERT_TRUE(WriteFileAtomic(state_dir_ + "/stores/s-1/manifest.json",
                              "{\"version\":1,\"torn")
                  .ok());
  ASSERT_TRUE(ChunkedTable::Create(Schema({"a"}), state_dir_ + "/stores/s-9")
                  .ok());
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 3u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    EXPECT_EQ(server.orphan_stores_removed(), 1u);
    EXPECT_EQ(server.cache_entries_restored(), 3u);
    EXPECT_FALSE(std::filesystem::exists(state_dir_ + "/stores/s-9"));
    // The same bytes as the older daemon, from its cache entries.
    for (const char* session : {"s-1", "s-2", "s-3"}) {
      auto discover = Request(server.port(), std::string(R"({"op":"discover",)") +
                                                 R"("session":")" + session +
                                                 R"("})");
      ASSERT_TRUE(discover.ok());
      EXPECT_EQ(*discover, ParentDiscover(session)) << session;
      auto file = ReadFileToString(state_dir_ + "/sessions/" + session +
                                   ".json");
      ASSERT_TRUE(file.ok());
      EXPECT_NE(file->find("\"storage\":\"chunked\""), std::string::npos);
      EXPECT_EQ(file->find("\"batches\""), std::string::npos) << session;
    }
    EXPECT_EQ(server.cache().hits(), 3u);
    EXPECT_EQ(server.cache().misses(), 0u);
    server.Shutdown();
  }
  // Recomputed from the migrated stores, without the cache.
  ASSERT_TRUE(RemoveFile(state_dir_ + "/cache.json").ok());
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 3u);
  for (const char* session : {"s-1", "s-2", "s-3"}) {
    auto discover = Request(server.port(), std::string(R"({"op":"discover",)") +
                                               R"("session":")" + session +
                                               R"("})");
    ASSERT_TRUE(discover.ok());
    EXPECT_EQ(*discover, ParentDiscover(session)) << session;
  }
  EXPECT_EQ(server.cache().hits(), 0u);
  auto append = Request(server.port(), AppendRows("s-2", 8, 5));
  ASSERT_TRUE(IsOk(append)) << *append;
  EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 38);
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, TruncatedLegacySnapshotIsDroppedLoudly) {
  CopyParentState(state_dir_);
  const std::string path = state_dir_ + "/sessions/s-1.json";
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(WriteFileAtomic(path, text->substr(0, text->size() / 2)).ok());
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 2u);
  EXPECT_EQ(server.sessions_recovery_failed(), 1u);
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_FALSE(std::filesystem::exists(state_dir_ + "/stores/s-1"));
  auto discover = Request(server.port(), R"({"op":"discover","session":"s-2"})");
  ASSERT_TRUE(discover.ok());
  EXPECT_EQ(*discover, ParentDiscover("s-2"));
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, FilesThatNameNoSessionAreLeftAlone) {
  // Only sessions/s-<n>.json is a session file. "..json" and "...json"
  // would name the stores directory and the state dir itself as their
  // session's store.
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(server.port(), AppendRows("s-1", 24, 5))));
    server.Shutdown();
  }
  for (const char* name : {"..json", "...json", "notes.json"}) {
    ASSERT_TRUE(
        WriteFileAtomic(state_dir_ + "/sessions/" + name, "{}").ok());
  }
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 1u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  EXPECT_DOUBLE_EQ(DiscoverRows(server.port(), "s-1"), 24);
  EXPECT_TRUE(ReadFileToString(state_dir_ + "/sessions/notes.json").ok());
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, CorruptStoreIsDroppedOnRestart) {
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(Request(
        server.port(),
        R"({"op":"open","schema":["a","b","c"],"storage":"chunked"})")));
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    server.Shutdown();
  }
  // Flip a byte inside the chunk payload.
  const std::string victim = state_dir_ + "/stores/s-1/chunk-000000.bin";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(40);
    f.write(&byte, 1);
  }
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 0u);
    EXPECT_EQ(server.sessions_recovery_failed(), 1u);
    // Consistent-or-absent: session gone, snapshot gone, store dir gone.
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(discover.ok());
    EXPECT_FALSE(JsonValue::Parse(*discover)->BoolOr("ok", true)) << *discover;
    EXPECT_FALSE(ReadFileToString(state_dir_ + "/sessions/s-1.json").ok());
    EXPECT_FALSE(ReadFileToString(victim).ok());
    server.Shutdown();
  }
}

}  // namespace
}  // namespace fdx
