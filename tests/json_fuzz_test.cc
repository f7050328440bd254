// Fuzz test of fdxd's JSON boundaries: JsonValue::Parse, ParseOptionsJson,
// DecodeSessionSnapshot and DecodeCacheSnapshot. The shared mutator
// (fuzz_mutator.h) turns seeds into cases: the session files and result
// cache of tests/service_fixtures/parent_state (a memory session fed a
// null and 3/3.0 tokens, a plain one and a chunked one) and one request
// per fdxd op. Its tokens are JSON punctuation, \u escapes (lone and
// paired surrogates), huge, negative and fractional numbers, and deep
// nesting. Every case must come back as a value or an error status,
// never a crash (the ASan/UBSan job runs this suite), and a snapshot
// that decodes must re-encode to text that decodes to the same snapshot.
// A failing case prints its input; minimize it into tests/corpus/ and
// replay it from a test here, as csv_fuzz_test does.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "csv_test_util.h"
#include "fuzz_mutator.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "util/file_io.h"
#include "util/json_parser.h"
#include "util/rng.h"

namespace fdx {
namespace {

using testing_csv::SameValue;

const std::vector<std::string>& Seeds() {
  static const std::vector<std::string> seeds = [] {
    const std::string state =
        std::string(FDX_SERVICE_FIXTURE_DIR) + "/parent_state";
    std::vector<std::string> out;
    for (const char* file : {"/sessions/s-1.json", "/sessions/s-2.json",
                             "/sessions/s-3.json", "/cache.json"}) {
      auto text = ReadFileToString(state + file);
      EXPECT_TRUE(text.ok()) << file << ": " << text.status().ToString();
      if (text.ok()) out.push_back(std::move(text).value());
    }
    const char* const requests[] = {
        R"({"op":"open","schema":["a","b","c"],"storage":"chunked",)"
        R"("options":{"estimator":"glasso","lambda":0.05,"seed":7}})",
        R"({"op":"append","session":"s-1","rows":[[1,"x",2.5],[null,"y",3]]})",
        R"({"op":"append","session":"s-1","csv":"a,b\n1,2\n\"q,z\",3.0\n"})",
        R"({"op":"discover","session":"s-1","deadline_seconds":2.5,)"
        R"("options":{"tau":0.01,"relative_threshold":0.6,)"
        R"("minimum_column_weight":0.08,"normalize":true,"ordering":"amd",)"
        R"("max_pairs":100,"pooled_covariance":false,"threads":2,)"
        R"("time_budget_seconds":1.5,"recovery":false,"warm_start":true,)"
        R"("solver":"newton"}})",
        R"({"op":"discover","table":{"schema":["x","y"],"rows":[[1,2],[2,4]]}})",
        R"({"op":"status"})",
        R"({"op":"sleep","seconds":0.05})",
        R"({"op":"shutdown"})",
    };
    for (const char* request : requests) out.push_back(request);
    return out;
  }();
  return seeds;
}

const std::vector<std::string>& Tokens() {
  static const std::vector<std::string> tokens = {
      // punctuation and literals
      "{", "}", "[", "]", ",", ":", "\"", "\\", "true", "false", "null",
      "{}", "[]", "\"\"", " ", "\t", "\n",
      // escapes, surrogates included
      "\\u0000", "\\u001f", "\\u00e9", "\\uffff", "\\ud800", "\\udbff",
      "\\udc00", "\\udfff", "\\ud83d\\ude00", "\\ud800\\u0041", "\\u12",
      "\\uZZZZ", "\\\"", "\\/", "\\x",
      // numbers: huge, negative, fractional, and past every integer type
      "0", "-0", "-1", "0.5", "-0.5", "1e308", "1e309", "-1e309", "1e-400",
      "4294967296", "9007199254740993", "18446744073709551615",
      "18446744073709551616", "-9223372036854775809", "1.", ".5", "+5",
      "--1", "1e", "0x10",
      // the same as the snapshot codec's string-typed numbers
      "\"-1\"", "\"1e400\"", "\"nan\"", "\"inf\"", "\"18446744073709551616\"",
      "\"0.1\"", "\"\"",
      // nesting
      std::string(64, '['), std::string(200, '['), std::string(64, ']'),
      "{\"a\":{\"a\":{\"a\":",
      // members the decoders look for
      "\"storage\":\"chunked\",", "\"storage\":\"memory\",", "\"version\":2,",
      "\"batches\":[],", "\"entries\":[],", "[\"i\",\"3\"]", "[\"d\",\"3.0\"]",
      "[\"s\",\"\"]", "[\"x\",\"1\"]", "\"options\":{},", "\"seed\":7,",
  };
  return tokens;
}

bool SameBatches(const std::vector<Table>& a, const std::vector<Table>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].num_rows() != b[i].num_rows() ||
        a[i].schema().names() != b[i].schema().names()) {
      return false;
    }
    for (size_t r = 0; r < a[i].num_rows(); ++r) {
      for (size_t c = 0; c < a[i].num_columns(); ++c) {
        if (!SameValue(a[i].cell(r, c), b[i].cell(r, c))) return false;
      }
    }
  }
  return true;
}

std::string Encode(const SessionSnapshot& snapshot) {
  std::vector<std::string> batches_json;
  for (const Table& batch : snapshot.batches) {
    batches_json.push_back(EncodeBatchRows(batch));
  }
  return EncodeSessionSnapshot(snapshot.id, snapshot.schema, snapshot.options,
                               snapshot.options_key, snapshot.content_hex,
                               batches_json, snapshot.storage);
}

/// Runs one input through every target and checks the contract.
void CheckCase(const std::string& text) {
  // Each target returns a value or an error; reaching the end is the
  // check for the error paths.
  const Result<JsonValue> parsed = JsonValue::Parse(text);
  if (parsed.ok()) {
    (void)ParseOptionsJson(*parsed, FdxOptions{});
    if (const JsonValue* options = parsed->Find("options")) {
      (void)ParseOptionsJson(*options, FdxOptions{});
    }
  }

  const Result<SessionSnapshot> session = DecodeSessionSnapshot(text);
  if (session.ok()) {
    const std::string encoded = Encode(*session);
    const Result<SessionSnapshot> again = DecodeSessionSnapshot(encoded);
    ASSERT_TRUE(again.ok()) << again.status().ToString() << "\nre-encoded: "
                            << encoded;
    EXPECT_EQ(again->id, session->id);
    EXPECT_EQ(again->schema.names(), session->schema.names());
    EXPECT_EQ(again->options_key, session->options_key);
    EXPECT_EQ(again->content_hex, session->content_hex);
    EXPECT_EQ(again->storage, session->storage);
    EXPECT_TRUE(SameBatches(again->batches, session->batches));
    // Options outside the key (threads, budgets) must survive too.
    EXPECT_EQ(Encode(*again), encoded);
  }

  const auto cache = DecodeCacheSnapshot(text);
  if (cache.ok()) {
    const auto again = DecodeCacheSnapshot(EncodeCacheSnapshot(*cache));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, *cache);
  }
}

TEST(JsonFuzzSeeds, SeedsDecode) {
  // The fixtures are what the fuzz cases mutate; each must decode as
  // its kind, so mutations start from inputs that reach deep.
  const std::vector<std::string>& seeds = Seeds();
  ASSERT_EQ(seeds.size(), 12u);
  for (size_t i = 0; i < 3; ++i) {
    const Result<SessionSnapshot> session = DecodeSessionSnapshot(seeds[i]);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->storage, i < 2 ? "memory" : "chunked");
  }
  ASSERT_TRUE(DecodeCacheSnapshot(seeds[3]).ok());
  for (size_t i = 4; i < seeds.size(); ++i) {
    const Result<JsonValue> request = JsonValue::Parse(seeds[i]);
    ASSERT_TRUE(request.ok()) << seeds[i];
    if (const JsonValue* options = request->Find("options")) {
      EXPECT_TRUE(ParseOptionsJson(*options, FdxOptions{}).ok()) << seeds[i];
    }
  }
  for (const std::string& seed : seeds) CheckCase(seed);
}

/// Cases per shard; each shard is its own ctest, a few seconds even
/// under the sanitizers. To fuzz longer, raise it locally.
constexpr size_t kCasesPerShard = 5000;

class JsonFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(JsonFuzzTest, EveryInputDecodesOrFailsCleanly) {
  Rng rng(0x15011000u + static_cast<uint64_t>(GetParam()));
  const std::vector<std::string>& seeds = Seeds();
  for (size_t i = 0; i < kCasesPerShard; ++i) {
    const std::string& seed = seeds[rng.NextUint64(seeds.size())];
    const std::string text = testing_fuzz::Mutate(seed, seeds, Tokens(), &rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + text);
    CheckCase(text);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace fdx
