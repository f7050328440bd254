#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "service/event_loop.h"
#include "service/job_queue.h"
#include "util/json_parser.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/session_registry.h"
#include "util/fingerprint.h"
#include "util/json_writer.h"

namespace fdx {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonParserTest, ParsesScalars) {
  auto v = JsonValue::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = JsonValue::Parse("true");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());

  v = JsonValue::Parse("-12.5e2");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->number_value(), -1250.0);

  v = JsonValue::Parse("\"hi\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "hi");
}

TEST(JsonParserTest, ParsesNestedDocument) {
  auto v = JsonValue::Parse(
      R"({"op":"discover","rows":[[1,"x",null],[2,"y",3.5]],"nested":{"deep":[true]}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->StringOr("op", ""), "discover");
  const JsonValue* rows = v->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array().size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array()[0].array()[0].number_value(), 1.0);
  EXPECT_TRUE(rows->array()[0].array()[2].is_null());
  const JsonValue* nested = v->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->Find("deep")->array()[0].bool_value());
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs) {
  auto v = JsonValue::Parse(R"("a\n\t\"\\\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string_value(), "a\n\t\"\\A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, LastDuplicateKeyWins) {
  auto v = JsonValue::Parse(R"({"a":1,"a":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->Find("a")->number_value(), 2.0);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{}extra").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"").ok());  // lone surrogate
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("1e999").ok());  // overflows to infinity
}

TEST(JsonParserTest, RejectsAbsurdNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonParserTest, RoundTripsWriterEscaping) {
  // The writer's escaping and the parser's decoding must be inverse
  // functions — the protocol ships arbitrary cell strings through both.
  std::string nasty;
  for (int c = 1; c < 0x20; ++c) nasty.push_back(static_cast<char>(c));
  nasty += "\"\\ plain \xC3\xA9\xF0\x9F\x98\x80";
  JsonWriter writer;
  writer.String(nasty);
  auto parsed = JsonValue::Parse(writer.TakeString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string_value(), nasty);
}

// --------------------------------------------------------- Fingerprint

TEST(FingerprintTest, FramingPreventsConcatenationCollisions) {
  Fingerprint a;
  a.UpdateString("ab");
  a.UpdateString("c");
  Fingerprint b;
  b.UpdateString("a");
  b.UpdateString("bc");
  EXPECT_NE(a.Hex(), b.Hex());
  EXPECT_EQ(a.Hex().size(), 32u);
}

TEST(FingerprintTest, Deterministic) {
  Fingerprint a;
  a.UpdateU64(7);
  a.UpdateDouble(1.5);
  Fingerprint b;
  b.UpdateU64(7);
  b.UpdateDouble(1.5);
  EXPECT_EQ(a.Hex(), b.Hex());
}

Table MakeTable(std::vector<std::string> names,
                const std::vector<std::vector<int64_t>>& rows) {
  Table table{Schema(std::move(names))};
  for (const auto& row : rows) {
    std::vector<Value> cells;
    for (int64_t v : row) cells.emplace_back(v);
    table.AppendRow(std::move(cells));
  }
  return table;
}

TEST(FingerprintTableTest, SensitiveToCellsSchemaAndTypes) {
  const Table base = MakeTable({"a", "b"}, {{1, 2}, {3, 4}});
  EXPECT_EQ(FingerprintTable(base),
            FingerprintTable(MakeTable({"a", "b"}, {{1, 2}, {3, 4}})));
  EXPECT_NE(FingerprintTable(base),
            FingerprintTable(MakeTable({"a", "b"}, {{1, 2}, {3, 5}})));
  EXPECT_NE(FingerprintTable(base),
            FingerprintTable(MakeTable({"a", "c"}, {{1, 2}, {3, 4}})));

  // null, 0, and "" are three different cells, not one.
  Table null_cell{Schema({"a"})};
  null_cell.AppendRow({Value::Null()});
  Table zero_cell{Schema({"a"})};
  zero_cell.AppendRow({Value(int64_t{0})});
  Table empty_cell{Schema({"a"})};
  empty_cell.AppendRow({Value(std::string())});
  EXPECT_NE(FingerprintTable(null_cell), FingerprintTable(zero_cell));
  EXPECT_NE(FingerprintTable(null_cell), FingerprintTable(empty_cell));
  EXPECT_NE(FingerprintTable(zero_cell), FingerprintTable(empty_cell));
}

TEST(FingerprintTableTest, BatchBoundariesAreResultRelevant) {
  // One 4-row batch vs two 2-row batches: batch-local pairing makes
  // these different datasets to IncrementalFdx, so their running
  // fingerprints must differ too.
  const Table whole = MakeTable({"a", "b"}, {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  const Table first = MakeTable({"a", "b"}, {{1, 2}, {3, 4}});
  const Table second = MakeTable({"a", "b"}, {{5, 6}, {7, 8}});

  Fingerprint one_batch;
  one_batch.UpdateString("batch");
  UpdateTableFingerprint(&one_batch, whole);

  Fingerprint two_batches;
  two_batches.UpdateString("batch");
  UpdateTableFingerprint(&two_batches, first);
  two_batches.UpdateString("batch");
  UpdateTableFingerprint(&two_batches, second);

  EXPECT_NE(one_batch.Hex(), two_batches.Hex());
}

// -------------------------------------------------- options / protocol

TEST(CanonicalOptionsKeyTest, TracksResultAffectingKnobsOnly) {
  const FdxOptions base;
  FdxOptions changed = base;
  changed.lambda = 0.2;
  EXPECT_NE(CanonicalOptionsKey(base), CanonicalOptionsKey(changed));

  changed = base;
  changed.recovery.enabled = false;
  EXPECT_NE(CanonicalOptionsKey(base), CanonicalOptionsKey(changed));

  changed = base;
  changed.transform.seed = 99;
  EXPECT_NE(CanonicalOptionsKey(base), CanonicalOptionsKey(changed));

  // Warm-started solves are tolerance-equal but not byte-equal to cold
  // ones, so the reuse knob must fragment the cache.
  changed = base;
  changed.reuse_solver_state = false;
  EXPECT_NE(CanonicalOptionsKey(base), CanonicalOptionsKey(changed));

  // Output-invariant knobs: threads (determinism contract) and the
  // wall-clock budget must NOT fragment the cache.
  changed = base;
  changed.threads = 7;
  changed.time_budget_seconds = 123.0;
  EXPECT_EQ(CanonicalOptionsKey(base), CanonicalOptionsKey(changed));
}

TEST(ParseOptionsJsonTest, AppliesKnownKeys) {
  auto json = JsonValue::Parse(
      R"({"estimator":"seqlasso","lambda":0.11,"seed":5,"normalize":false,
          "time_budget_seconds":2.5,"recovery":false})");
  ASSERT_TRUE(json.ok());
  auto options = ParseOptionsJson(*json, FdxOptions{});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->estimator, StructureEstimator::kSequentialLasso);
  EXPECT_DOUBLE_EQ(options->lambda, 0.11);
  EXPECT_EQ(options->transform.seed, 5u);
  EXPECT_FALSE(options->normalize_covariance);
  EXPECT_DOUBLE_EQ(options->time_budget_seconds, 2.5);
  EXPECT_FALSE(options->recovery.enabled);

  auto warm = JsonValue::Parse(R"({"warm_start":false})");
  ASSERT_TRUE(warm.ok());
  auto cold_options = ParseOptionsJson(*warm, FdxOptions{});
  ASSERT_TRUE(cold_options.ok()) << cold_options.status().ToString();
  EXPECT_FALSE(cold_options->reuse_solver_state);
}

TEST(ParseOptionsJsonTest, RejectsUnknownAndMistypedKeys) {
  auto unknown = JsonValue::Parse(R"({"lambada":0.1})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(ParseOptionsJson(*unknown, FdxOptions{}).ok());

  auto mistyped = JsonValue::Parse(R"({"lambda":"big"})");
  ASSERT_TRUE(mistyped.ok());
  EXPECT_FALSE(ParseOptionsJson(*mistyped, FdxOptions{}).ok());

  auto bad_estimator = JsonValue::Parse(R"({"estimator":"ols"})");
  ASSERT_TRUE(bad_estimator.ok());
  EXPECT_FALSE(ParseOptionsJson(*bad_estimator, FdxOptions{}).ok());

  auto not_object = JsonValue::Parse("[1]");
  ASSERT_TRUE(not_object.ok());
  EXPECT_FALSE(ParseOptionsJson(*not_object, FdxOptions{}).ok());
}

TEST(ParseOptionsJsonTest, RejectsIntegersThatDoNotFit) {
  // seed, max_pairs and threads are integers: a negative, fractional or
  // out-of-range number is an InvalidArgument naming the option, never a
  // wrapped or truncated cast. Parsing starts no thread.
  const struct {
    const char* json;
    const char* option;
  } cases[] = {
      {R"({"max_pairs":-1})", "max_pairs"},
      {R"({"max_pairs":1e30})", "max_pairs"},
      {R"({"max_pairs":2.5})", "max_pairs"},
      {R"({"seed":-1})", "seed"},
      {R"({"seed":18446744073709551616})", "seed"},
      {R"({"seed":0.5})", "seed"},
      {R"({"threads":-3})", "threads"},
      {R"({"threads":1e12})", "threads"},
      {R"({"threads":1025})", "threads"},
  };
  for (const auto& c : cases) {
    auto json = JsonValue::Parse(c.json);
    ASSERT_TRUE(json.ok()) << c.json;
    auto options = ParseOptionsJson(*json, FdxOptions{});
    ASSERT_FALSE(options.ok()) << c.json;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument)
        << c.json;
    EXPECT_NE(options.status().message().find(std::string("options.") +
                                              c.option),
              std::string::npos)
        << c.json << ": " << options.status().message();
  }
  // The largest values that fit are kept exactly.
  auto edge = JsonValue::Parse(
      R"({"max_pairs":0,"seed":9007199254740992,"threads":1024})");
  ASSERT_TRUE(edge.ok());
  auto options = ParseOptionsJson(*edge, FdxOptions{});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->transform.max_pairs_per_attribute, 0u);
  EXPECT_EQ(options->transform.seed, uint64_t{9007199254740992});
  EXPECT_EQ(options->threads, 1024u);
}

TEST(JsonParserTest, CountValueRejectsWhatDoesNotFit) {
  const auto count = [](const char* text, uint64_t max = UINT64_MAX) {
    return JsonValue::Parse(text).value().CountValue(max);
  };
  EXPECT_EQ(count("0"), 0u);
  EXPECT_EQ(count("7", 7), 7u);
  EXPECT_EQ(count("1e3"), 1000u);
  EXPECT_EQ(count("-0"), 0u);
  EXPECT_FALSE(count("8", 7).has_value());
  EXPECT_FALSE(count("-1").has_value());
  EXPECT_FALSE(count("2.5").has_value());
  EXPECT_FALSE(count("18446744073709551616").has_value());
  EXPECT_FALSE(count("1e300").has_value());
  EXPECT_FALSE(count("\"3\"").has_value());
  EXPECT_FALSE(count("true").has_value());
}

TEST(JsonCellToValueTest, MapsKinds) {
  auto integral = JsonCellToValue(JsonValue::MakeNumber(42.0));
  ASSERT_TRUE(integral.ok());
  EXPECT_EQ(integral->type(), ValueType::kInt);
  EXPECT_EQ(integral->AsInt(), 42);

  auto fractional = JsonCellToValue(JsonValue::MakeNumber(1.25));
  ASSERT_TRUE(fractional.ok());
  EXPECT_EQ(fractional->type(), ValueType::kDouble);

  auto null_cell = JsonCellToValue(JsonValue());
  ASSERT_TRUE(null_cell.ok());
  EXPECT_EQ(null_cell->type(), ValueType::kNull);

  EXPECT_FALSE(JsonCellToValue(JsonValue::MakeBool(true)).ok());
}

TEST(RenderErrorResponseTest, UnavailableCarriesRetryHint) {
  const std::string busy =
      RenderErrorResponse("discover", Status::Unavailable("queue full"));
  auto parsed = JsonValue::Parse(busy);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->BoolOr("ok", true));
  EXPECT_TRUE(parsed->BoolOr("retry", false));
  EXPECT_EQ(parsed->Find("error")->StringOr("code", ""), "Unavailable");

  const std::string invalid =
      RenderErrorResponse("open", Status::InvalidArgument("bad schema"));
  parsed = JsonValue::Parse(invalid);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("retry"), nullptr);
}

// ------------------------------------------------------------ JobQueue

TEST(JobQueueTest, ExecutesSubmittedJobs) {
  JobQueue queue(2, 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Submit([&ran] { ran.fetch_add(1); }).ok());
  }
  EXPECT_TRUE(queue.Drain(5.0));
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(queue.executed(), 4u);
  EXPECT_EQ(queue.rejected(), 0u);
}

TEST(JobQueueTest, RejectsBeyondCapacityWithUnavailable) {
  JobQueue queue(1, 2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  // Occupy the worker and the one remaining admission slot.
  ASSERT_TRUE(queue.Submit([gate] { gate.wait(); }).ok());
  ASSERT_TRUE(queue.Submit([gate] { gate.wait(); }).ok());
  const Status third = queue.Submit([] {});
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_EQ(queue.rejected(), 1u);
  release.set_value();
  EXPECT_TRUE(queue.Drain(5.0));
  EXPECT_EQ(queue.executed(), 2u);
}

TEST(JobQueueTest, CloseIntakeRejectsNewWork) {
  JobQueue queue(1, 4);
  queue.CloseIntake();
  const Status rejected = queue.Submit([] {});
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
}

TEST(JobQueueTest, DrainTimesOutOnStuckJob) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  JobQueue queue(1, 1);
  ASSERT_TRUE(queue.Submit([gate] { gate.wait(); }).ok());
  EXPECT_FALSE(queue.Drain(0.05));
  release.set_value();  // let the destructor's unbounded drain finish
}

// ----------------------------------------------------------- EventLoop

/// A connected pair: the loop serves one end, the test talks on the
/// other (with a read deadline, so a lost wakeup fails instead of
/// hanging).
void ConnectedPair(Socket* client, Socket* server) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  *client = Socket(fds[0]);
  *server = Socket(fds[1]);
  ASSERT_TRUE(client->SetReadTimeout(10.0).ok());
}

TEST(EventLoopTest, ConnectionAdoptedBeforeStartIsServed) {
  EventLoop::Callbacks callbacks;
  callbacks.dispatch = [](std::string line, EventLoop::DoneFn done) {
    done("echo " + line, /*keep_open=*/true);
  };
  callbacks.on_accept = [](Socket) {};
  EventLoop loop(EventLoop::Options{}, callbacks);

  // A socket adopted before Start() posts its wakeup before the loop
  // has an eventfd; the loop must still pick it up.
  Socket early_client, early;
  ASSERT_NO_FATAL_FAILURE(ConnectedPair(&early_client, &early));
  ASSERT_TRUE(early_client.SendAll("early\n").ok());
  loop.AdoptConnection(std::move(early));
  ASSERT_TRUE(loop.Start().ok());

  std::string line;
  ASSERT_TRUE(early_client.ReadLine(&line).ok());
  EXPECT_EQ(line, "echo early");

  Socket late_client, late;
  ASSERT_NO_FATAL_FAILURE(ConnectedPair(&late_client, &late));
  loop.AdoptConnection(std::move(late));
  ASSERT_TRUE(late_client.SendAll("late\n").ok());
  ASSERT_TRUE(late_client.ReadLine(&line).ok());
  EXPECT_EQ(line, "echo late");

  loop.RequestStop();
  loop.Join();
  EXPECT_EQ(loop.aborted_connections(), 0u);
}

// ----------------------------------------------------------- Sessions

TEST(SessionRegistryTest, OpenGetCloseLifecycle) {
  SessionRegistry registry(4, 0.0);
  auto first = registry.Open(Schema({"a", "b"}), FdxOptions{});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->id, "s-1");
  auto second = registry.Open(Schema({"c"}), FdxOptions{});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->id, "s-2");
  EXPECT_EQ(registry.size(), 2u);

  auto found = registry.Get("s-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->fdx.schema().size(), 2u);

  auto missing = registry.Get("s-99");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(registry.Close("s-1"));
  EXPECT_FALSE(registry.Close("s-1"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SessionRegistryTest, EnforcesMaxSessions) {
  SessionRegistry registry(2, 0.0);
  ASSERT_TRUE(registry.Open(Schema({"a"}), FdxOptions{}).ok());
  ASSERT_TRUE(registry.Open(Schema({"a"}), FdxOptions{}).ok());
  auto third = registry.Open(Schema({"a"}), FdxOptions{});
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  // Freeing a slot lets the next open through; ids never recycle.
  ASSERT_TRUE(registry.Close("s-1"));
  auto fourth = registry.Open(Schema({"a"}), FdxOptions{});
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ((*fourth)->id, "s-3");
}

TEST(SessionRegistryTest, OpenRejectsPooledCovariance) {
  // Sessions merge integer moments batch by batch, so the pooled
  // estimator would be dropped without a word; open refuses it instead.
  SessionRegistry registry(4, 0.0);
  FdxOptions options;
  options.transform.pooled_covariance = true;
  auto pooled = registry.Open(Schema({"a", "b"}), options);
  EXPECT_EQ(pooled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pooled.status().message().find("pooled_covariance"),
            std::string::npos)
      << pooled.status().message();
  EXPECT_EQ(registry.size(), 0u);
  // The refusal took no slot and no id.
  options.transform.pooled_covariance = false;
  auto plain = registry.Open(Schema({"a", "b"}), options);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->id, "s-1");
}

TEST(SessionRegistryTest, EvictsIdleSessionsAfterTtl) {
  SessionRegistry registry(4, 0.02);
  ASSERT_TRUE(registry.Open(Schema({"a"}), FdxOptions{}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(registry.EvictExpired(), 1u);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.evicted(), 1u);
  EXPECT_EQ(registry.Get("s-1").status().code(), StatusCode::kNotFound);
}

TEST(SessionRegistryTest, GetRefreshesTtl) {
  SessionRegistry registry(4, 0.2);
  ASSERT_TRUE(registry.Open(Schema({"a"}), FdxOptions{}).ok());
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(registry.Get("s-1").ok()) << "iteration " << i;
  }
}

// -------------------------------------------------------- ResultCache

TEST(ResultCacheTest, HitMissAndCounters) {
  ResultCache cache(4);
  std::string payload;
  EXPECT_FALSE(cache.Lookup("k1", &payload));
  cache.Insert("k1", "v1");
  ASSERT_TRUE(cache.Lookup("k1", &payload));
  EXPECT_EQ(payload, "v1");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert("a", "1");
  cache.Insert("b", "2");
  std::string payload;
  ASSERT_TRUE(cache.Lookup("a", &payload));  // "b" is now LRU
  cache.Insert("c", "3");
  EXPECT_FALSE(cache.Lookup("b", &payload));
  EXPECT_TRUE(cache.Lookup("a", &payload));
  EXPECT_TRUE(cache.Lookup("c", &payload));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, InsertRefreshesExistingKey) {
  ResultCache cache(2);
  cache.Insert("a", "old");
  cache.Insert("a", "new");
  EXPECT_EQ(cache.size(), 1u);
  std::string payload;
  ASSERT_TRUE(cache.Lookup("a", &payload));
  EXPECT_EQ(payload, "new");
}

TEST(ResultCacheTest, ShardedCacheBehavesLikeUnsharded) {
  ResultCache cache(16, /*shards=*/4);
  EXPECT_EQ(cache.shards(), 4u);
  std::string payload;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_FALSE(cache.Lookup(key, &payload));
    cache.Insert(key, "v" + std::to_string(i));
    ASSERT_TRUE(cache.Lookup(key, &payload));
    EXPECT_EQ(payload, "v" + std::to_string(i));
  }
  EXPECT_EQ(cache.hits(), 12u);
  EXPECT_EQ(cache.misses(), 12u);
  // Aggregate counters are exactly the sum over the shard views.
  ResultCache::ShardStats totals;
  for (size_t shard = 0; shard < cache.shards(); ++shard) {
    const ResultCache::ShardStats stats = cache.shard_stats(shard);
    totals.size += stats.size;
    totals.hits += stats.hits;
    totals.misses += stats.misses;
    totals.evictions += stats.evictions;
  }
  EXPECT_EQ(totals.size, cache.size());
  EXPECT_EQ(totals.hits, cache.hits());
  EXPECT_EQ(totals.misses, cache.misses());
  EXPECT_EQ(totals.evictions, cache.evictions());
}

TEST(ResultCacheTest, ShardedConcurrentHammer) {
  // 8 threads × shared + private keys: exercised under TSan in CI. The
  // striped locks must keep every counter exact and every payload
  // uncorrupted.
  ResultCache cache(256, /*shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> observed_hits{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, t] {
      std::string payload;
      for (int i = 0; i < kIters; ++i) {
        const std::string shared = "shared-" + std::to_string(i % 16);
        const std::string mine =
            "private-" + std::to_string(t) + "-" + std::to_string(i % 8);
        cache.Insert(shared, shared);
        cache.Insert(mine, mine);
        if (cache.Lookup(shared, &payload)) {
          observed_hits.fetch_add(1);
          EXPECT_EQ(payload, shared);
        }
        if (cache.Lookup(mine, &payload)) {
          observed_hits.fetch_add(1);
          EXPECT_EQ(payload, mine);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(2 * kThreads * kIters));
  EXPECT_EQ(cache.hits(), observed_hits.load());
  uint64_t shard_sizes = 0;
  for (size_t shard = 0; shard < cache.shards(); ++shard) {
    shard_sizes += cache.shard_stats(shard).size;
  }
  EXPECT_EQ(shard_sizes, cache.size());
}

TEST(SessionRegistryTest, ShardedConcurrentOpenCloseKeepsExactCap) {
  // The global session cap is enforced with a CAS across shards: no
  // interleaving may ever admit more than max_sessions at once.
  SessionRegistry registry(16, 0.0, /*shards=*/4);
  EXPECT_EQ(registry.shards(), 4u);
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::atomic<uint64_t> opened{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &opened, &rejected] {
      std::vector<std::string> mine;
      for (int i = 0; i < kIters; ++i) {
        auto session = registry.Open(Schema({"a", "b"}), FdxOptions{});
        if (session.ok()) {
          opened.fetch_add(1);
          EXPECT_LE(registry.size(), 16u);
          mine.push_back((*session)->id);
          if (mine.size() >= 2) {
            EXPECT_TRUE(registry.Close(mine.back()));
            mine.pop_back();
          }
        } else {
          EXPECT_EQ(session.status().code(), StatusCode::kUnavailable);
          rejected.fetch_add(1);
          if (!mine.empty()) {
            EXPECT_TRUE(registry.Close(mine.back()));
            mine.pop_back();
          }
        }
      }
      for (const std::string& id : mine) EXPECT_TRUE(registry.Close(id));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.opened(), opened.load());
  EXPECT_EQ(opened.load() + rejected.load(),
            static_cast<uint64_t>(kThreads * kIters));
}

// ------------------------------------------------- Status text report

TEST(StatusTextReportTest, RendersCountersAndShards) {
  const std::string status = R"({
    "ok": true, "op": "status", "uptime_seconds": 12.5,
    "connections": 7, "requests": 42,
    "requests_by_op": {"open": 2, "append": 3, "discover": 30,
                       "status": 5, "sleep": 0, "shutdown": 0, "invalid": 2},
    "accept_faults": 0,
    "io": {"io_threads": 2, "connections_live": 3,
           "max_pipeline_depth": 1024, "accept_transient_errors": 1},
    "queue": {"workers": 2, "capacity": 8, "active": 1,
              "executed": 29, "rejected": 4},
    "cache": {"size": 5, "capacity": 64, "hits": 11, "misses": 18,
              "evictions": 0,
              "shards": [{"size": 2, "hits": 6, "misses": 9, "evictions": 0},
                         {"size": 3, "hits": 5, "misses": 9, "evictions": 0}]},
    "sessions": {"open": 2, "max": 32, "shards": 8, "opened": 2,
                 "evicted": 0},
    "solver": {"solves": 18, "warm_started": 4, "memo_hits": 2}
  })";
  auto parsed = JsonValue::Parse(status);
  ASSERT_TRUE(parsed.ok());
  const std::string report = RenderStatusTextReport(parsed.value());

  EXPECT_NE(report.find("io_threads=2"), std::string::npos) << report;
  EXPECT_NE(report.find("connections_live=3"), std::string::npos) << report;
  EXPECT_NE(report.find("accept_transient_errors=1"), std::string::npos);
  EXPECT_NE(report.find("discover=30"), std::string::npos) << report;
  EXPECT_NE(report.find("invalid=2"), std::string::npos) << report;
  EXPECT_NE(report.find("depth=1"), std::string::npos) << report;
  EXPECT_NE(report.find("hits=11"), std::string::npos) << report;
  EXPECT_NE(report.find("shard[0]"), std::string::npos) << report;
  EXPECT_NE(report.find("shard[1]"), std::string::npos) << report;
  EXPECT_NE(report.find("warm_started=4"), std::string::npos) << report;
}

TEST(StatusTextReportTest, MissingMembersRenderAsZeros) {
  // A minimal status from an older daemon must still render (zeros, no
  // shard lines) instead of crashing or printing garbage.
  auto parsed = JsonValue::Parse(R"({"ok": true, "op": "status"})");
  ASSERT_TRUE(parsed.ok());
  const std::string report = RenderStatusTextReport(parsed.value());
  EXPECT_NE(report.find("total=0"), std::string::npos) << report;
  EXPECT_EQ(report.find("shard["), std::string::npos) << report;
}

}  // namespace
}  // namespace fdx
