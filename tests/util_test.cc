#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fdx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::IOError("").code(),         Status::NumericalError("").code(),
      Status::Timeout("").code(),         Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FDX_ASSIGN_OR_RETURN(int h, Half(x));
  FDX_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("xyz", ','), (std::vector<std::string>{"xyz"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::string text = "alpha,beta,gamma";
  EXPECT_EQ(Join(Split(text, ','), ","), text);
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \n "), "");
}

TEST(StringUtilTest, IsIntegerAndIsDouble) {
  EXPECT_TRUE(IsInteger("42"));
  EXPECT_TRUE(IsInteger("-7"));
  EXPECT_FALSE(IsInteger("4.2"));
  EXPECT_FALSE(IsInteger("x"));
  EXPECT_FALSE(IsInteger(""));
  EXPECT_TRUE(IsDouble("4.2"));
  EXPECT_TRUE(IsDouble("-1e3"));
  EXPECT_FALSE(IsDouble("4.2x"));
  EXPECT_FALSE(IsDouble(""));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(1000), b.NextUint64(1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_difference = false;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64(1 << 30) != b.NextUint64(1 << 30)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RngTest, NextIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextDiscrete(weights), 1u);
  }
  // Statistical sanity: heavily skewed draw.
  weights = {9.0, 1.0};
  int zeros = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDiscrete(weights) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 1600);
  EXPECT_LT(zeros, 1990);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(StopwatchTest, Monotone) {
  Stopwatch w;
  const double t1 = w.ElapsedSeconds();
  const double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(w.ElapsedMillis(), w.ElapsedSeconds() * 1e3, 5.0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Burn a little time.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_TRUE(d.Expired());
}

// ------------------------------------------------------------ Flags

/// Flags over `args` (args[0] is the program), read from `first`.
Flags ParseArgs(std::vector<std::string> args, int first = 1) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags("tool", static_cast<int>(argv.size()), argv.data(), first);
}

TEST(FlagsTest, CountRejectsWhatIsNotAWholeNumberInRange) {
  for (const char* value : {"abc", "-1", "1e30", "1.5", "", "7x", "nan",
                            "inf"}) {
    const Result<uint64_t> parsed = ParseCountFlag("workers", value, 1, 64);
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              std::string("--workers=") + value +
                  ": expected an integer in [1, 64]");
  }
  EXPECT_FALSE(ParseCountFlag("workers", "0", 1, 64).ok());
  EXPECT_FALSE(ParseCountFlag("workers", "65", 1, 64).ok());
  EXPECT_EQ(ParseCountFlag("workers", "64", 1, 64).value(), 64u);
  EXPECT_EQ(ParseCountFlag("workers", "1e1").value(), 10u);
  // 2^64 itself is out of range; the largest exact double below it is in.
  EXPECT_FALSE(ParseCountFlag("n", "18446744073709551616").ok());
  EXPECT_EQ(ParseCountFlag("n", "9007199254740992").value(),
            9007199254740992u);
}

TEST(FlagsTest, NumberAcceptsOnlyWholeFiniteValues) {
  EXPECT_DOUBLE_EQ(ParseNumberFlag("lambda", "1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseNumberFlag("lambda", "-1").value(), -1.0);
  EXPECT_DOUBLE_EQ(ParseNumberFlag("lambda", "1e30").value(), 1e30);
  for (const char* value : {"abc", "", "0.5s", "inf", "nan", "1e999"}) {
    const Result<double> parsed = ParseNumberFlag("timeout", value);
    ASSERT_FALSE(parsed.ok()) << value;
    EXPECT_EQ(parsed.status().message(),
              std::string("--timeout=") + value + ": expected a finite number");
  }
}

TEST(FlagsTest, PortIsACountUpTo65535) {
  const Result<uint16_t> too_big = ParsePortFlag("port", "65536");
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().message(),
            "--port=65536: expected an integer in [0, 65535]");
  EXPECT_EQ(ParsePortFlag("port", "65535").value(), 65535);
  EXPECT_EQ(ParsePortFlag("port", "0").value(), 0);
  for (const char* value : {"abc", "-1", "1.5", "70000"}) {
    EXPECT_FALSE(ParsePortFlag("port", value).ok()) << value;
  }
  const Flags flags = ParseArgs({"tool", "--port=4464"});
  EXPECT_EQ(flags.GetPort("port", 7), 4464);
  EXPECT_EQ(flags.GetPort("absent", 7), 7);
}

TEST(FlagsTest, ByteIsExactlyOneByte) {
  const Result<char> word = ParseByteFlag("delimiter", "tab");
  ASSERT_FALSE(word.ok());
  EXPECT_EQ(word.status().message(),
            "--delimiter=tab: expected a single byte");
  for (const char* value : {"", ";;", "\\t"}) {
    EXPECT_FALSE(ParseByteFlag("delimiter", value).ok()) << value;
  }
  EXPECT_EQ(ParseByteFlag("delimiter", "\t").value(), '\t');
  const Flags flags = ParseArgs({"tool", "--delimiter=;"});
  EXPECT_EQ(flags.GetByte("delimiter", ','), ';');
  EXPECT_EQ(flags.GetByte("absent", ','), ',');
}

TEST(FlagsTest, LastValueWinsAndBareFlagsArePresence) {
  const Flags flags = ParseArgs({"tool", "sub", "--workers=2", "data.csv",
                                 "--workers=4", "--debug-ops"},
                                /*first=*/2);
  EXPECT_EQ(flags.GetCount("workers", 1), 4u);
  EXPECT_EQ(flags.GetCount("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(flags.GetNumber("workers", 0.5), 4.0);
  EXPECT_DOUBLE_EQ(flags.GetNumber("absent", 0.5), 0.5);
  EXPECT_EQ(flags.Get("workers"), "4");
  EXPECT_FALSE(flags.Find("debug-ops").has_value());
  EXPECT_TRUE(flags.Has("debug-ops"));
  EXPECT_FALSE(flags.Has("workers"));
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"data.csv"});
}

TEST(FlagsTest, CheckKnownNamesTheFirstStranger) {
  const Flags known = ParseArgs({"tool", "--port=1", "--debug-ops"});
  EXPECT_TRUE(known.CheckKnown({"port=", "debug-ops"}).ok());
  // A valued name does not admit the bare flag, nor the reverse.
  EXPECT_EQ(known.CheckKnown({"port", "debug-ops"}).message(),
            "unknown flag --port=1");
  EXPECT_EQ(known.CheckKnown({"port=", "debug-ops="}).message(),
            "unknown flag --debug-ops");
  // A known name never admits a longer one that starts with it.
  EXPECT_FALSE(known.CheckKnown({"por=", "debug-ops"}).ok());

  EXPECT_EQ(ParseArgs({"tool", "--port=1", "extra"})
                .CheckKnown({"port="})
                .message(),
            "unexpected argument extra");
}

}  // namespace
}  // namespace fdx
