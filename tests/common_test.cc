#include <atomic>
#include <cstdio>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/token_cursor.h"

namespace t3 {
namespace {

TEST(StatsTest, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Stddev({2, 2, 2}), 0.0);
  EXPECT_NEAR(Stddev({1, 2, 3, 4}), 1.2909944487358056, 1e-12);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({42}), 42.0);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> values = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.9), 46.0);  // Between 40 and 50.
}

TEST(StatsTest, EmptyInputYieldsNaNNotAbort) {
  // Stats run over untrusted, possibly-empty data (parsed corpora, filtered
  // run lists); empty input is a data condition reported as NaN, never a
  // crash.
  EXPECT_TRUE(std::isnan(Mean({})));
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
  EXPECT_TRUE(std::isnan(Quantile({}, 0.0)));
  EXPECT_DOUBLE_EQ(Stddev({}), 0.0);
}

TEST(StringUtilTest, ParseDoubleStrict) {
  double value = -1.0;
  EXPECT_TRUE(ParseDouble("3.25", &value));
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &value));
  EXPECT_DOUBLE_EQ(value, -1e-3);
  EXPECT_TRUE(ParseDouble("0", &value));
  EXPECT_DOUBLE_EQ(value, 0.0);

  value = 7.0;
  EXPECT_FALSE(ParseDouble("", &value));
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));  // Trailing characters.
  EXPECT_FALSE(ParseDouble("1.5 ", &value));
  EXPECT_FALSE(ParseDouble("inf", &value));
  EXPECT_FALSE(ParseDouble("-inf", &value));
  EXPECT_FALSE(ParseDouble("nan", &value));
  EXPECT_FALSE(ParseDouble("1e999", &value));  // Overflows to infinity.
  EXPECT_FALSE(ParseDouble(" 2.5", &value));  // Leading whitespace.
  EXPECT_FALSE(ParseDouble("+2.5", &value));
  EXPECT_FALSE(ParseDouble("0x1p3", &value));  // Hex float.
  EXPECT_DOUBLE_EQ(value, 7.0);  // Failures never touch the output.
}

TEST(StringUtilTest, ParseInt64Strict) {
  int64_t value = -1;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);

  value = 5;
  EXPECT_FALSE(ParseInt64("", &value));
  EXPECT_FALSE(ParseInt64("12.5", &value));
  EXPECT_FALSE(ParseInt64("12abc", &value));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &value));  // Overflow.
  EXPECT_FALSE(ParseInt64("+5", &value));
  EXPECT_FALSE(ParseInt64(" 7", &value));  // Leading whitespace.
  EXPECT_EQ(value, 5);
}

TEST(StringUtilTest, ParseUint64Strict) {
  uint64_t value = 1;
  EXPECT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);

  value = 5;
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("-1", &value));  // No wrapping to huge values.
  EXPECT_FALSE(ParseUint64(" -1", &value));  // Not even behind a space.
  EXPECT_FALSE(ParseUint64("+1", &value));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &value));  // Overflow.
  EXPECT_FALSE(ParseUint64("1.0", &value));
  EXPECT_EQ(value, 5u);
}

// line() is the line of the next unread byte: a '\n' counts once it is
// skipped, not while the cursor sits on it, and asking twice, or after an
// Advance over several lines, gives the same answer as asking each time.
TEST(TokenCursorTest, LineFollowsTokenAndNumberReads) {
  TokenCursor cursor("alpha 1\n\n  2.5\tbeta\r\n3\n\ngamma\n");
  EXPECT_EQ(cursor.line(), 1);
  EXPECT_EQ(cursor.NextToken(), "alpha");
  EXPECT_EQ(cursor.line(), 1);
  int i = 0;
  ASSERT_TRUE(cursor.NextNumber(&i));
  EXPECT_EQ(i, 1);
  EXPECT_EQ(cursor.line(), 1);  // On the '\n' that ends line 1.
  double d = 0.0;
  ASSERT_TRUE(cursor.NextNumber(&d));
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(cursor.line(), 3);
  EXPECT_EQ(cursor.line(), 3);
  EXPECT_EQ(cursor.NextToken(), "beta");
  EXPECT_EQ(cursor.line(), 3);  // On the "\r\n".
  ASSERT_TRUE(cursor.NextNumber(&i));
  EXPECT_EQ(i, 3);
  EXPECT_EQ(cursor.line(), 4);
  EXPECT_FALSE(cursor.NextNumber(&i));  // "gamma" is not a number...
  EXPECT_EQ(cursor.line(), 6);          // ...but the blank lines are gone.
  EXPECT_EQ(cursor.NextToken(), "gamma");
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_EQ(cursor.line(), 7);
  EXPECT_EQ(cursor.NextToken(), "");
  EXPECT_EQ(cursor.line(), 7);
}

TEST(TokenCursorTest, LineCountsWhatAdvanceSkips) {
  const std::string_view text = "a\nb\nc\nd\n";
  TokenCursor asked_each_time(text);
  TokenCursor asked_at_end(text);
  for (int step = 0; step < 3; ++step) {
    asked_each_time.Advance(asked_each_time.pos() + 2);
    EXPECT_EQ(asked_each_time.line(), step + 2);
  }
  asked_at_end.Advance(asked_at_end.pos() + 6);
  EXPECT_EQ(asked_at_end.line(), 4);
  EXPECT_EQ(asked_at_end.NextToken(), "d");
  EXPECT_EQ(asked_at_end.line(), 4);
  asked_at_end.Advance(asked_at_end.end());
  EXPECT_EQ(asked_at_end.line(), 5);
  EXPECT_TRUE(asked_at_end.AtEnd());
}

TEST(FileUtilTest, WriteThenReadRoundTripsAndMissingFileIsNotFound) {
  const std::string path = testing::TempDir() + "/file_util_test.txt";
  std::string content(200000, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>(i * 7 % 251);
  }
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, content);
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "");
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
  // Not a regular file: read by the loop alone.
  read = ReadFileToString("/dev/null");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, KnownFirstValueIsStable) {
  // Pins the PRNG stream: any change to seeding or the generator would
  // silently re-randomize every experiment in the repo.
  Rng rng(42);
  const uint64_t first = rng.Next();
  Rng again(42);
  EXPECT_EQ(again.Next(), first);
  EXPECT_NE(first, 0u);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All of 3..7 hit within 1000 draws.
}

TEST(RngTest, UniformDoubleStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(-2, 5);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Gaussian(10, 2));
  EXPECT_NEAR(Mean(samples), 10.0, 0.1);
  EXPECT_NEAR(Stddev(samples), 2.0, 0.1);
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::OK().ok());
  const Status error = InvalidArgumentError("bad");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);

  Result<int> error = NotFoundError("nope");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, Split) {
  const std::vector<std::string> pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("\r\n"), "");
}

TEST(StringUtilTest, FormatDurationUnits) {
  EXPECT_EQ(FormatDuration(812), "812ns");
  EXPECT_EQ(FormatDuration(4200), "4.20us");
  EXPECT_EQ(FormatDuration(1.35e6), "1.35ms");
  EXPECT_EQ(FormatDuration(2.1e9), "2.10s");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  (void)sink;
  EXPECT_GT(timer.ElapsedNanos(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, AsyncReturnsValues) {
  ThreadPool pool(2);
  auto a = pool.Async([] { return 21; });
  auto b = pool.Async([] { return 2.0; });
  EXPECT_EQ(a.get() * static_cast<int>(b.get()), 42);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(1);
  pool.Wait();  // Must not deadlock.
}

}  // namespace
}  // namespace t3
