// Socket-level chaos tests: injected short reads/writes, EAGAIN storms,
// abrupt mid-pipeline disconnects, server-side deadlines, and load
// shedding. The invariant under every fault is the same: responses stay
// byte-correct, the server stays up, and overload turns into structured
// retry_after rejections, never torn frames or hangs.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/json_parser.h"
#include "service/server.h"
#include "util/fault_injection.h"
#include "util/socket.h"
#include "util/stopwatch.h"

namespace fdx {
namespace {

Result<std::string> Request(uint16_t port, const std::string& line) {
  FDX_ASSIGN_OR_RETURN(Socket sock, Socket::ConnectLoopback(port));
  FDX_RETURN_IF_ERROR(sock.SendAll(line + "\n"));
  std::string response;
  FDX_RETURN_IF_ERROR(sock.ReadLine(&response));
  return response;
}

bool WaitFor(const std::function<bool()>& pred, double seconds = 10.0) {
  Stopwatch watch;
  while (!pred()) {
    if (watch.ElapsedSeconds() > seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
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

class ServiceChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }

  FdxServer& StartServer(ServerOptions options) {
    options.port = 0;
    servers_.push_back(std::make_unique<FdxServer>(std::move(options)));
    auto status = servers_.back()->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return *servers_.back();
  }

  std::vector<std::unique_ptr<FdxServer>> servers_;
};

// All socket I/O — both the server's and this test client's — degrades
// to one-byte reads and writes. Byte-at-a-time framing is the harshest
// fragmentation the kernel could ever deliver; every response must
// still parse and repeat discovers must stay byte-identical.
TEST_F(ServiceChaosTest, ShortReadsAndWritesKeepResponsesIntact) {
  FdxServer& server = StartServer(ServerOptions{});
  ASSERT_TRUE(ArmFaults(std::string(kFaultSocketReadShort) + "," +
                        kFaultSocketWriteShort)
                  .ok());

  auto open = Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(IsOk(*open)) << *open;
  auto append = Request(server.port(),
                        R"({"op":"append","session":"s-1","rows":)" +
                            RowsJson(12, 4) + "}");
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(IsOk(*append)) << *append;

  auto first = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(IsOk(*first)) << *first;
  auto second = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second) << "fragmented I/O tore a response";
}

// Every third event-loop write reports EAGAIN without moving a byte.
// The loop must buffer, re-arm EPOLLOUT, and finish the flush — the
// client (blocking SendAll/ReadLine, which don't consult this fault
// point) just sees a slightly slower, still-correct response.
TEST_F(ServiceChaosTest, WriteEagainStormStillDelivers) {
  FdxServer& server = StartServer(ServerOptions{});
  ASSERT_TRUE(ArmFaults(std::string(kFaultSocketWriteEagain) + ":3%").ok());
  for (int i = 0; i < 4; ++i) {
    auto status = Request(server.port(), R"({"op":"status"})");
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_TRUE(IsOk(*status)) << *status;
  }
}

// A client that vanishes mid-pipeline — request sent, response pending —
// must not wedge the server, and the abort is counted. The next client
// gets normal service.
TEST_F(ServiceChaosTest, MidPipelineDisconnectIsAbsorbed) {
  ServerOptions options;
  options.enable_debug_ops = true;
  FdxServer& server = StartServer(options);

  {
    auto sock = Socket::ConnectLoopback(server.port());
    ASSERT_TRUE(sock.ok());
    // Two pipelined sleeps plus a torn half-frame, then vanish.
    ASSERT_TRUE(sock
                    ->SendAll("{\"op\":\"sleep\",\"seconds\":0.2}\n"
                              "{\"op\":\"sleep\",\"seconds\":0.01}\n"
                              "{\"op\":\"stat")
                    .ok());
    // Let the daemon admit the work before the socket dies.
    ASSERT_TRUE(WaitFor([&] { return server.queue().active() >= 1; }));
  }  // socket closes here, with responses undelivered

  // The in-flight jobs finish; the server keeps serving.
  ASSERT_TRUE(WaitFor([&] { return server.queue().active() == 0; }));
  auto after = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(IsOk(*after)) << *after;
  EXPECT_TRUE(WaitFor([&] { return server.aborted_connections() >= 1; }))
      << "event loop did not count the aborted connection";
}

// conn.drop: the first socket operation that visits the point gets an
// injected disconnect (whichever side of the loopback wins the race).
// The contract is recovery: once the one-shot fault burns, the very
// next request succeeds.
TEST_F(ServiceChaosTest, InjectedConnDropRecovers) {
  FdxServer& server = StartServer(ServerOptions{});
  ASSERT_TRUE(ArmFaults(std::string(kFaultConnDrop) + ":1").ok());
  auto doomed = Request(server.port(), R"({"op":"status"})");
  (void)doomed;  // either side may have taken the drop; both are legal
  DisarmFaults();
  auto after = Request(server.port(), R"({"op":"status"})");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(IsOk(*after)) << *after;
}

// Queue-depth load shedding: with the watermark at capacity/2 and the
// workers pinned by sleeps, new discover jobs get a structured
// Unavailable with a retry_after hint, and the shed counter moves.
TEST_F(ServiceChaosTest, QueueWatermarkShedsDiscover) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.workers = 1;
  options.queue_capacity = 8;
  options.shed_queue_watermark = 0.25;  // shed at 2 of 8
  options.shed_retry_after_seconds = 0.5;
  FdxServer& server = StartServer(options);

  // Pin the worker and fill the queue past the watermark. Sleeps are
  // exempt from shedding (only discover sheds), so these are admitted.
  std::vector<std::thread> sleepers;
  for (int i = 0; i < 3; ++i) {
    sleepers.emplace_back([&server] {
      (void)Request(server.port(), R"({"op":"sleep","seconds":0.5})");
    });
  }
  ASSERT_TRUE(WaitFor([&] { return server.queue().active() >= 2; }));

  auto shed = Request(server.port(),
                      R"({"op":"discover","table":{"schema":["x","y"],)"
                      R"("rows":[[1,2],[2,4],[3,6]]}})");
  ASSERT_TRUE(shed.ok());
  EXPECT_FALSE(IsOk(*shed));
  EXPECT_EQ(ErrorCode(*shed), "Unavailable") << *shed;
  auto parsed = JsonValue::Parse(*shed);
  EXPECT_TRUE(parsed->BoolOr("retry", false)) << *shed;
  EXPECT_DOUBLE_EQ(parsed->NumberOr("retry_after", 0.0), 0.5) << *shed;
  EXPECT_GE(server.shed_queue(), 1u);

  for (auto& t : sleepers) t.join();
  // Below the watermark again: the same discover is admitted.
  ASSERT_TRUE(WaitFor([&] { return server.queue().active() == 0; }));
  auto admitted = Request(server.port(),
                          R"({"op":"discover","table":{"schema":["x","y"],)"
                          R"("rows":[[1,2],[2,4],[3,6]]}})");
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(IsOk(*admitted)) << *admitted;
}

// Server-side deadlines: a request that waits in the queue past its
// deadline_seconds is answered with Timeout + retry_after instead of
// being executed. The deadline-shed counter moves; the work is skipped.
TEST_F(ServiceChaosTest, QueuedPastDeadlineIsShedNotExecuted) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.workers = 1;
  options.queue_capacity = 8;
  FdxServer& server = StartServer(options);

  // Pin the single worker long enough that the dated request expires.
  std::thread pin([&server] {
    (void)Request(server.port(), R"({"op":"sleep","seconds":0.6})");
  });
  ASSERT_TRUE(WaitFor([&] { return server.queue().active() >= 1; }));

  auto late = Request(
      server.port(),
      R"({"op":"sleep","seconds":0.01,"deadline_seconds":0.05})");
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(IsOk(*late));
  EXPECT_EQ(ErrorCode(*late), "Timeout") << *late;
  EXPECT_TRUE(JsonValue::Parse(*late)->BoolOr("retry", false)) << *late;
  EXPECT_GE(server.shed_deadline(), 1u);
  pin.join();

  // An un-dated request through the same path still executes.
  auto fine = Request(server.port(), R"({"op":"sleep","seconds":0.01})");
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(IsOk(*fine)) << *fine;
}

// A default server-side deadline from ServerOptions applies to requests
// that never sent deadline_seconds.
TEST_F(ServiceChaosTest, DefaultDeadlineAppliesWhenRequestOmitsIt) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.workers = 1;
  options.default_deadline_seconds = 0.05;
  FdxServer& server = StartServer(options);

  std::thread pin([&server] {
    // Explicit generous deadline so the pin itself is not shed.
    (void)Request(server.port(),
                  R"({"op":"sleep","seconds":0.6,"deadline_seconds":30})");
  });
  ASSERT_TRUE(WaitFor([&] { return server.queue().active() >= 1; }));
  auto late = Request(server.port(), R"({"op":"sleep","seconds":0.01})");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(ErrorCode(*late), "Timeout") << *late;
  pin.join();
}

}  // namespace
}  // namespace fdx
