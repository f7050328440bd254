// End-to-end tests of the fdxd service stack: a real FdxServer on an
// ephemeral loopback port, spoken to over real sockets with the
// line-delimited JSON protocol. In-process (not via the binaries) so
// the tests can assert on server counters directly and run under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/json_parser.h"
#include "service/server.h"
#include "util/fault_injection.h"
#include "util/json_writer.h"
#include "util/socket.h"
#include "util/stopwatch.h"

namespace fdx {
namespace {

/// One-shot request: connect, send one line, read one line.
Result<std::string> Request(uint16_t port, const std::string& line) {
  FDX_ASSIGN_OR_RETURN(Socket sock, Socket::ConnectLoopback(port));
  FDX_RETURN_IF_ERROR(sock.SendAll(line + "\n"));
  std::string response;
  FDX_RETURN_IF_ERROR(sock.ReadLine(&response));
  return response;
}

/// Spins until `pred` holds (tests gate on server counters, not sleeps).
bool WaitFor(const std::function<bool()>& pred, double seconds = 10.0) {
  Stopwatch watch;
  while (!pred()) {
    if (watch.ElapsedSeconds() > seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// `[[i%m, 2*(i%m), i%3], ...]` — a planted a->b FD with repeats so the
/// pair transform sees plenty of equal cells.
std::string RowsJson(int rows, int modulus) {
  std::string json = "[";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) json += ",";
    const int a = i % modulus;
    json += "[" + std::to_string(a) + "," + std::to_string(2 * a) + "," +
            std::to_string(i % 3) + "]";
  }
  return json + "]";
}

std::string DiscoverTableRequest(int rows, int modulus) {
  return R"({"op":"discover","table":{"schema":["a","b","c"],"rows":)" +
         RowsJson(rows, modulus) + "}}";
}

bool IsOk(const std::string& response) {
  auto parsed = JsonValue::Parse(response);
  return parsed.ok() && parsed->BoolOr("ok", false);
}

std::string ErrorCode(const std::string& response) {
  auto parsed = JsonValue::Parse(response);
  if (!parsed.ok()) return "<unparseable>";
  const JsonValue* error = parsed->Find("error");
  return error == nullptr ? "<no error>" : error->StringOr("code", "");
}

class ServiceIntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }

  /// Starts a server with the given knobs; registers it for teardown.
  FdxServer& StartServer(ServerOptions options) {
    options.port = 0;
    servers_.push_back(std::make_unique<FdxServer>(std::move(options)));
    auto status = servers_.back()->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return *servers_.back();
  }

  std::vector<std::unique_ptr<FdxServer>> servers_;
};

TEST_F(ServiceIntegrationTest, SessionLifecycleWithCachedDiscover) {
  FdxServer& server = StartServer(ServerOptions{});

  auto open = Request(server.port(),
                      R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(IsOk(*open)) << *open;
  const std::string session =
      JsonValue::Parse(*open)->StringOr("session", "");
  EXPECT_EQ(session, "s-1");

  auto append = Request(server.port(),
                        R"({"op":"append","session":"s-1","rows":)" +
                            RowsJson(24, 5) + "}");
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(IsOk(*append)) << *append;
  EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 24);

  const std::string discover = R"({"op":"discover","session":"s-1"})";
  auto cold = Request(server.port(), discover);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(IsOk(*cold)) << *cold;
  EXPECT_EQ(server.cache().hits(), 0u);

  // Second discover: byte-identical replay out of the cache, no new job.
  auto cached = Request(server.port(), discover);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cold, *cached);
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_TRUE(WaitFor([&] { return server.queue().executed() == 1u; }));

  // Appending invalidates the fingerprint -> next discover recomputes.
  ASSERT_TRUE(Request(server.port(),
                      R"({"op":"append","session":"s-1","rows":)" +
                          RowsJson(24, 5) + "}")
                  .ok());
  auto after_append = Request(server.port(), discover);
  ASSERT_TRUE(after_append.ok());
  ASSERT_TRUE(IsOk(*after_append)) << *after_append;
  // The response is posted from inside the job body, so the executed
  // counter can lag the client's read of the response by an instant.
  EXPECT_TRUE(WaitFor([&] { return server.queue().executed() == 2u; }));
}

TEST_F(ServiceIntegrationTest, StatusReportsSolverCounters) {
  FdxServer& server = StartServer(ServerOptions{});

  auto open = Request(server.port(),
                      R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(IsOk(*open)) << *open;

  // Cold solve, then append + re-discover: the second solve warm-starts
  // from the first and both land in the status counters.
  ASSERT_TRUE(Request(server.port(),
                      R"({"op":"append","session":"s-1","rows":)" +
                          RowsJson(24, 5) + "}")
                  .ok());
  auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(IsOk(*cold)) << *cold;
  ASSERT_TRUE(Request(server.port(),
                      R"({"op":"append","session":"s-1","rows":)" +
                          RowsJson(24, 5) + "}")
                  .ok());
  auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(IsOk(*warm)) << *warm;

  auto status = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(IsOk(*status)) << *status;
  auto parsed = JsonValue::Parse(*status);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* solver = parsed->Find("solver");
  ASSERT_NE(solver, nullptr) << *status;
  EXPECT_DOUBLE_EQ(solver->NumberOr("solves", -1), 2);
  EXPECT_DOUBLE_EQ(solver->NumberOr("warm_started", -1), 1);
  EXPECT_DOUBLE_EQ(solver->NumberOr("memo_hits", -1), 0);
}

TEST_F(ServiceIntegrationTest, CsvAndInlineTableShareTheCache) {
  FdxServer& server = StartServer(ServerOptions{});

  // Same relation shipped two ways: inline CSV (with header) and a JSON
  // table. Cells normalize identically, so the second form must hit the
  // first one's cache entry and return the exact same bytes.
  std::string csv = "a,b,c\n";
  for (int i = 0; i < 24; ++i) {
    const int a = i % 5;
    csv += std::to_string(a) + "," + std::to_string(2 * a) + "," +
           std::to_string(i % 3) + "\n";
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  writer.String("discover");
  writer.Key("csv");
  writer.String(csv);
  writer.EndObject();
  auto via_csv = Request(server.port(), writer.TakeString());
  ASSERT_TRUE(via_csv.ok());
  ASSERT_TRUE(IsOk(*via_csv)) << *via_csv;

  auto via_table = Request(server.port(), DiscoverTableRequest(24, 5));
  ASSERT_TRUE(via_table.ok());
  EXPECT_EQ(*via_csv, *via_table);
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_TRUE(WaitFor([&] { return server.queue().executed() == 1u; }));
}

TEST_F(ServiceIntegrationTest, CachedResponseMatchesColdServerByteForByte) {
  // A cache hit must be indistinguishable from a fresh computation —
  // including across daemon restarts (nothing wall-clock or stateful
  // may leak into the payload).
  FdxServer& warm = StartServer(ServerOptions{});
  auto first = Request(warm.port(), DiscoverTableRequest(30, 4));
  auto second = Request(warm.port(), DiscoverTableRequest(30, 4));
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(IsOk(*first)) << *first;
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(warm.cache().hits(), 1u);

  FdxServer& cold = StartServer(ServerOptions{});
  auto fresh = Request(cold.port(), DiscoverTableRequest(30, 4));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*first, *fresh);
}

TEST_F(ServiceIntegrationTest, EightConcurrentClients) {
  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;
  FdxServer& server = StartServer(options);

  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &responses, i] {
      // Distinct modulus per client -> distinct tables -> no cache
      // collisions; every request is a real discovery job.
      auto response =
          Request(server.port(), DiscoverTableRequest(40, 3 + i));
      responses[i] = response.ok() ? *response : response.status().ToString();
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(IsOk(responses[i])) << "client " << i << ": " << responses[i];
  }
  // The executed counter increments after the response is written, so a
  // client can observe its reply before the bookkeeping lands.
  EXPECT_TRUE(WaitFor([&server] {
    return server.queue().executed() == static_cast<uint64_t>(kClients);
  }));
  EXPECT_EQ(server.queue().rejected(), 0u);
  EXPECT_EQ(server.connections(), static_cast<uint64_t>(kClients));
}

TEST_F(ServiceIntegrationTest, FullQueueReturnsStructuredBackpressure) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.enable_debug_ops = true;
  FdxServer& server = StartServer(options);

  // Deterministically fill the queue: one sleep running, one admitted.
  const std::string sleep_request = R"({"op":"sleep","seconds":1.0})";
  std::vector<std::thread> sleepers;
  std::vector<std::string> sleep_responses(2);
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&server, &sleep_responses, i, &sleep_request] {
      auto response = Request(server.port(), sleep_request);
      sleep_responses[i] =
          response.ok() ? *response : response.status().ToString();
    });
  }
  ASSERT_TRUE(WaitFor([&server] { return server.queue().active() == 2; }));

  // Third job on a live connection: structured 429, connection survives.
  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendAll(R"({"op":"sleep","seconds":0.01})"
                            "\n")
                  .ok());
  std::string rejected;
  ASSERT_TRUE(sock->ReadLine(&rejected).ok());
  EXPECT_FALSE(IsOk(rejected)) << rejected;
  EXPECT_EQ(ErrorCode(rejected), "Unavailable");
  EXPECT_TRUE(JsonValue::Parse(rejected)->BoolOr("retry", false));
  EXPECT_EQ(server.queue().rejected(), 1u);

  // Same connection keeps working after the rejection.
  ASSERT_TRUE(sock->SendAll("{\"op\":\"status\"}\n").ok());
  std::string status_response;
  ASSERT_TRUE(sock->ReadLine(&status_response).ok());
  EXPECT_TRUE(IsOk(status_response)) << status_response;

  for (auto& t : sleepers) t.join();
  EXPECT_TRUE(IsOk(sleep_responses[0])) << sleep_responses[0];
  EXPECT_TRUE(IsOk(sleep_responses[1])) << sleep_responses[1];
}

TEST_F(ServiceIntegrationTest, ShutdownDrainsInFlightJobs) {
  ServerOptions options;
  options.workers = 1;
  options.enable_debug_ops = true;
  options.drain_seconds = 10.0;
  FdxServer& server = StartServer(options);
  const uint16_t port = server.port();

  std::string slow_response;
  std::thread slow_client([port, &slow_response] {
    auto response = Request(port, R"({"op":"sleep","seconds":0.4})");
    slow_response = response.ok() ? *response : response.status().ToString();
  });
  ASSERT_TRUE(WaitFor([&server] { return server.queue().active() == 1; }));

  auto shutdown = Request(port, R"({"op":"shutdown"})");
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(IsOk(*shutdown)) << *shutdown;

  server.Wait();  // performs the drain + teardown
  EXPECT_TRUE(server.drained_cleanly());

  // The in-flight sleep finished and its response reached the client.
  slow_client.join();
  EXPECT_TRUE(IsOk(slow_response)) << slow_response;

  // Teardown completed: the queue drained and nothing is left running.
  // (Probing the port would be racy under parallel ctest — a sibling
  // test process can rebind the freed ephemeral port immediately.)
  EXPECT_EQ(server.queue().active(), 0u);
}

TEST_F(ServiceIntegrationTest, AcceptFaultDropsOneConnection) {
  FdxServer& server = StartServer(ServerOptions{});
  ASSERT_TRUE(ArmFaults(std::string(kFaultServiceAccept) + ":1").ok());

  // First connection is dropped by the injected accept fault: the
  // client connects at the TCP level but reads EOF.
  auto dropped = Request(server.port(), R"({"op":"status"})");
  EXPECT_FALSE(dropped.ok());
  ASSERT_TRUE(WaitFor([&server] { return server.accept_faults() == 1; }));

  // The daemon shrugged it off; the next connection works.
  auto healthy = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(IsOk(*healthy)) << *healthy;
}

TEST_F(ServiceIntegrationTest, EnqueueFaultSurfacesAsInternalError) {
  FdxServer& server = StartServer(ServerOptions{});
  ASSERT_TRUE(ArmFaults(std::string(kFaultServiceEnqueue) + ":1").ok());

  auto faulted = Request(server.port(), DiscoverTableRequest(20, 4));
  ASSERT_TRUE(faulted.ok());
  EXPECT_FALSE(IsOk(*faulted)) << *faulted;
  EXPECT_EQ(ErrorCode(*faulted), "Internal");

  DisarmFaults();
  auto healthy = Request(server.port(), DiscoverTableRequest(20, 4));
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(IsOk(*healthy)) << *healthy;
}

TEST_F(ServiceIntegrationTest, SessionErrorPaths) {
  ServerOptions options;
  options.max_sessions = 1;
  FdxServer& server = StartServer(options);

  auto unknown = Request(server.port(),
                         R"({"op":"discover","session":"s-404"})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(ErrorCode(*unknown), "NotFound");

  auto dup_schema = Request(server.port(),
                            R"({"op":"open","schema":["a","a"]})");
  ASSERT_TRUE(dup_schema.ok());
  EXPECT_EQ(ErrorCode(*dup_schema), "InvalidArgument");

  auto open = Request(server.port(), R"({"op":"open","schema":["a","b"]})");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(IsOk(*open)) << *open;

  // Capacity: a second session is refused with the retry hint.
  auto over_cap = Request(server.port(), R"({"op":"open","schema":["x"]})");
  ASSERT_TRUE(over_cap.ok());
  EXPECT_EQ(ErrorCode(*over_cap), "Unavailable");
  EXPECT_TRUE(JsonValue::Parse(*over_cap)->BoolOr("retry", false));

  // Width mismatch against the session schema.
  auto bad_width = Request(
      server.port(), R"({"op":"append","session":"s-1","rows":[[1],[2]]})");
  ASSERT_TRUE(bad_width.ok());
  EXPECT_EQ(ErrorCode(*bad_width), "InvalidArgument");

  // Per-request options are rejected on session discovers.
  auto opts = Request(
      server.port(),
      R"({"op":"discover","session":"s-1","options":{"lambda":0.1}})");
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(ErrorCode(*opts), "InvalidArgument");

  // Sub-2-row append is refused by IncrementalFdx.
  auto tiny = Request(server.port(),
                      R"({"op":"append","session":"s-1","rows":[[1,2]]})");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(ErrorCode(*tiny), "InvalidArgument");
}

TEST_F(ServiceIntegrationTest, SessionTtlEvictionOverTheWire) {
  ServerOptions options;
  options.session_ttl_seconds = 0.05;
  FdxServer& server = StartServer(options);

  auto open = Request(server.port(), R"({"op":"open","schema":["a","b"]})");
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(IsOk(*open)) << *open;

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto expired = Request(server.port(),
                         R"({"op":"append","session":"s-1","rows":)" +
                             RowsJson(4, 2) + "}");
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(ErrorCode(*expired), "NotFound");
  EXPECT_EQ(server.sessions().evicted(), 1u);
}

TEST_F(ServiceIntegrationTest, MalformedRequestsKeepTheConnectionAlive) {
  FdxServer& server = StartServer(ServerOptions{});
  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());

  const std::vector<std::string> bad_lines = {
      "this is not json",
      "{\"no\":\"op\"}",
      "{\"op\":\"frobnicate\"}",
      "{\"op\":\"sleep\"}",  // debug op while debug ops are disabled
  };
  for (const std::string& line : bad_lines) {
    ASSERT_TRUE(sock->SendAll(line + "\n").ok());
    std::string response;
    ASSERT_TRUE(sock->ReadLine(&response).ok()) << line;
    EXPECT_FALSE(IsOk(response)) << line << " -> " << response;
  }
  // Still alive after four bad requests.
  ASSERT_TRUE(sock->SendAll("{\"op\":\"status\"}\n").ok());
  std::string response;
  ASSERT_TRUE(sock->ReadLine(&response).ok());
  EXPECT_TRUE(IsOk(response)) << response;
}

TEST_F(ServiceIntegrationTest, DiscoverHonorsRequestOptions) {
  FdxServer& server = StartServer(ServerOptions{});

  // A microscopic time budget must produce a structured Timeout, and
  // distinct options must produce distinct cache entries.
  const std::string base = DiscoverTableRequest(40, 5);
  std::string with_budget = base;
  with_budget.insert(with_budget.size() - 1,
                     R"(,"options":{"time_budget_seconds":1e-9})");
  auto timed_out = Request(server.port(), with_budget);
  ASSERT_TRUE(timed_out.ok());
  EXPECT_EQ(ErrorCode(*timed_out), "Timeout") << *timed_out;

  auto fine = Request(server.port(), base);
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(IsOk(*fine)) << *fine;

  std::string with_seed = base;
  with_seed.insert(with_seed.size() - 1, R"(,"options":{"seed":9})");
  auto seeded = Request(server.port(), with_seed);
  ASSERT_TRUE(seeded.ok());
  EXPECT_TRUE(IsOk(*seeded)) << *seeded;
  // seed is part of the canonical key: no false cache hit.
  EXPECT_EQ(server.cache().hits(), 0u);
}

TEST_F(ServiceIntegrationTest, NegativeLambdaIsRejected) {
  FdxServer& server = StartServer(ServerOptions{});

  auto open = Request(
      server.port(),
      R"({"op":"open","schema":["a","b","c"],"options":{"lambda":-1}})");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(ErrorCode(*open), "InvalidArgument") << *open;
  EXPECT_NE(open->find("lambda"), std::string::npos) << *open;
  EXPECT_EQ(server.sessions().size(), 0u);

  std::string discover = DiscoverTableRequest(40, 5);
  discover.insert(discover.size() - 1, R"(,"options":{"lambda":-1})");
  auto rejected = Request(server.port(), discover);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(ErrorCode(*rejected), "InvalidArgument") << *rejected;
  EXPECT_EQ(server.queue().executed(), 0u);

  // lambda = 0 (no penalty) stays legal on both ops.
  auto open_zero = Request(
      server.port(),
      R"({"op":"open","schema":["a","b","c"],"options":{"lambda":0}})");
  ASSERT_TRUE(open_zero.ok());
  EXPECT_TRUE(IsOk(*open_zero)) << *open_zero;
  std::string discover_zero = DiscoverTableRequest(40, 5);
  discover_zero.insert(discover_zero.size() - 1, R"(,"options":{"lambda":0})");
  auto zero = Request(server.port(), discover_zero);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(IsOk(*zero)) << *zero;
}

TEST_F(ServiceIntegrationTest, PipelinedRequestsAnswerInOrder) {
  ServerOptions options;
  options.enable_debug_ops = true;
  FdxServer& server = StartServer(options);

  // One write carrying six frames: a slow job first, then fast inline
  // ops and distinguishable discovers. Responses must come back in
  // request order even though the later requests finish first on the
  // worker side — per-connection execution is serial by contract.
  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());
  const std::string batch = std::string(R"({"op":"sleep","seconds":0.2})") +
                            "\n" + R"({"op":"status"})" + "\n" +
                            DiscoverTableRequest(10, 5) + "\n" +
                            DiscoverTableRequest(12, 5) + "\n" +
                            DiscoverTableRequest(14, 5) + "\n" +
                            R"({"op":"status"})" + "\n";
  ASSERT_TRUE(sock->SendAll(batch).ok());

  const std::vector<std::string> expected_ops = {
      "sleep", "status", "discover", "discover", "discover", "status"};
  const std::vector<double> expected_rows = {0, 0, 10, 12, 14, 0};
  for (size_t i = 0; i < expected_ops.size(); ++i) {
    std::string response;
    ASSERT_TRUE(sock->ReadLine(&response).ok()) << "response " << i;
    auto parsed = JsonValue::Parse(response);
    ASSERT_TRUE(parsed.ok()) << response;
    EXPECT_TRUE(parsed->BoolOr("ok", false)) << response;
    EXPECT_EQ(parsed->StringOr("op", ""), expected_ops[i]) << response;
    if (expected_rows[i] > 0) {
      EXPECT_DOUBLE_EQ(parsed->NumberOr("rows", 0), expected_rows[i])
          << response;
    }
  }
}

TEST_F(ServiceIntegrationTest, BurstBeyondPipelineDepthAnswersEverything) {
  // Regression: a single burst of more synchronously-answered requests
  // than max_pipeline_depth used to hang — the loop read-paused at
  // depth, and the frames extracted by Pump's un-pause tail were never
  // dispatched (the kernel buffer was already drained, so no further
  // EPOLLIN arrived to pick them up).
  ServerOptions options;
  options.max_pipeline_depth = 8;
  FdxServer& server = StartServer(options);

  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());
  constexpr int kBurst = 64;
  std::string batch;
  for (int i = 0; i < kBurst; ++i) batch += "{\"op\":\"status\"}\n";
  ASSERT_TRUE(sock->SendAll(batch).ok());
  for (int i = 0; i < kBurst; ++i) {
    std::string response;
    ASSERT_TRUE(sock->ReadLine(&response).ok()) << "response " << i;
    EXPECT_TRUE(IsOk(response)) << response;
  }
  EXPECT_EQ(server.requests(), static_cast<uint64_t>(kBurst));
}

TEST_F(ServiceIntegrationTest, PipelineDepthOneStillServesFollowOnRequests) {
  // Regression: with depth 1 the resume threshold depth/2 == 0 was
  // never satisfied, so every connection stayed read-paused after its
  // first request.
  ServerOptions options;
  options.max_pipeline_depth = 1;
  FdxServer& server = StartServer(options);

  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());
  // Both shapes must work: a pipelined pair in one write, and a fresh
  // request sent after the first responses were consumed.
  ASSERT_TRUE(
      sock->SendAll("{\"op\":\"status\"}\n{\"op\":\"status\"}\n").ok());
  for (int i = 0; i < 2; ++i) {
    std::string response;
    ASSERT_TRUE(sock->ReadLine(&response).ok()) << "response " << i;
    EXPECT_TRUE(IsOk(response)) << response;
  }
  ASSERT_TRUE(sock->SendAll(DiscoverTableRequest(10, 5) + "\n").ok());
  std::string response;
  ASSERT_TRUE(sock->ReadLine(&response).ok());
  EXPECT_TRUE(IsOk(response)) << response;
}

TEST_F(ServiceIntegrationTest, PartialFramesAndSlowWriterParseCorrectly) {
  FdxServer& server = StartServer(ServerOptions{});

  auto sock = Socket::ConnectLoopback(server.port());
  ASSERT_TRUE(sock.ok());

  // A frame dribbled in five writes with pauses: the incremental parser
  // must buffer the partial line without dispatching anything.
  const std::string request = R"({"op":"status"})";
  for (size_t off = 0; off < request.size(); off += 4) {
    ASSERT_TRUE(sock->SendAll(request.substr(off, 4)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.requests(), 0u);  // no terminator yet: nothing ran
  ASSERT_TRUE(sock->SendAll("\n").ok());
  std::string response;
  ASSERT_TRUE(sock->ReadLine(&response).ok());
  EXPECT_TRUE(IsOk(response)) << response;

  // CRLF framing, blank keep-alive lines, and a frame split exactly at
  // the boundary between two pipelined requests.
  ASSERT_TRUE(sock->SendAll("\r\n\n{\"op\":\"status\"}\r\n{\"op\":").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(sock->SendAll("\"status\"}\n").ok());
  for (int i = 0; i < 2; ++i) {
    std::string line;
    ASSERT_TRUE(sock->ReadLine(&line).ok()) << "response " << i;
    EXPECT_TRUE(IsOk(line)) << line;
  }
}

TEST_F(ServiceIntegrationTest, StatusExposesIoAndShardObservability) {
  ServerOptions options;
  options.cache_shards = 4;
  options.session_shards = 4;
  FdxServer& server = StartServer(options);

  ASSERT_TRUE(
      Request(server.port(), R"({"op":"open","schema":["a","b","c"]})").ok());
  ASSERT_TRUE(Request(server.port(), DiscoverTableRequest(10, 5)).ok());
  ASSERT_TRUE(Request(server.port(), DiscoverTableRequest(10, 5)).ok());

  auto status = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(status.ok());
  auto parsed = JsonValue::Parse(*status);
  ASSERT_TRUE(parsed.ok()) << *status;

  const JsonValue* by_op = parsed->Find("requests_by_op");
  ASSERT_NE(by_op, nullptr) << *status;
  EXPECT_DOUBLE_EQ(by_op->NumberOr("open", 0), 1);
  EXPECT_DOUBLE_EQ(by_op->NumberOr("discover", 0), 2);
  EXPECT_DOUBLE_EQ(by_op->NumberOr("append", -1), 0);

  // The default runs one event loop per hardware thread.
  const JsonValue* io = parsed->Find("io");
  ASSERT_NE(io, nullptr) << *status;
  const size_t derived =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(server.io_threads(), derived);
  EXPECT_DOUBLE_EQ(io->NumberOr("io_threads", 0),
                   static_cast<double>(derived));
  // This status connection itself is live while being served.
  EXPECT_GE(io->NumberOr("connections_live", -1), 1);
  EXPECT_GE(io->NumberOr("accept_transient_errors", -1), 0);

  const JsonValue* queue = parsed->Find("queue");
  ASSERT_NE(queue, nullptr) << *status;
  EXPECT_GE(queue->NumberOr("active", -1), 0);

  const JsonValue* cache = parsed->Find("cache");
  ASSERT_NE(cache, nullptr) << *status;
  const JsonValue* shards = cache->Find("shards");
  ASSERT_NE(shards, nullptr) << *status;
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->array().size(), 4u);
  double shard_hits = 0;
  double shard_misses = 0;
  for (const JsonValue& shard : shards->array()) {
    shard_hits += shard.NumberOr("hits", 0);
    shard_misses += shard.NumberOr("misses", 0);
  }
  // Per-shard counters must reconcile with the aggregate view.
  EXPECT_DOUBLE_EQ(shard_hits, cache->NumberOr("hits", -1));
  EXPECT_DOUBLE_EQ(shard_misses, cache->NumberOr("misses", -1));
  EXPECT_DOUBLE_EQ(shard_hits, 1);  // the repeated table discover

  const JsonValue* sessions = parsed->Find("sessions");
  ASSERT_NE(sessions, nullptr) << *status;
  EXPECT_DOUBLE_EQ(sessions->NumberOr("shards", 0), 4);

  // An explicit count is taken as given.
  ServerOptions one_loop;
  one_loop.io_threads = 1;
  FdxServer& pinned = StartServer(one_loop);
  EXPECT_EQ(pinned.io_threads(), 1u);
  auto pinned_status = Request(pinned.port(), R"({"op":"status"})");
  ASSERT_TRUE(pinned_status.ok());
  auto pinned_parsed = JsonValue::Parse(*pinned_status);
  ASSERT_TRUE(pinned_parsed.ok()) << *pinned_status;
  const JsonValue* pinned_io = pinned_parsed->Find("io");
  ASSERT_NE(pinned_io, nullptr) << *pinned_status;
  EXPECT_DOUBLE_EQ(pinned_io->NumberOr("io_threads", 0), 1);
}

}  // namespace
}  // namespace fdx
