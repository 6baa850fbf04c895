#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "common/file_util.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/strings.h"
#include "common/uuid.h"

namespace chronos {
namespace {

// --- Status / StatusOr ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int i = 0; i <= 14; ++i) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

Status FailingHelper() { return Status::Internal("boom"); }

Status UsesReturnIfError() {
  CHRONOS_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInternal);
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = ParsePositive(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = ParsePositive(-1);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> UsesAssignOrReturn(int v) {
  CHRONOS_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed + 1;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*UsesAssignOrReturn(1), 2);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

// --- strings ---

TEST(StringsTest, SplitBasic) {
  auto parts = strings::Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyTokens) {
  auto parts = strings::Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  auto parts = strings::Split("/a//b/", '/', true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(strings::Join(parts, "-"), "x-y-z");
  EXPECT_EQ(strings::Join({}, "-"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::Trim("  hi \t\r\n"), "hi");
  EXPECT_EQ(strings::Trim(""), "");
  EXPECT_EQ(strings::Trim("   "), "");
  EXPECT_EQ(strings::Trim("a"), "a");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(strings::ToLower("AbC"), "abc");
  EXPECT_EQ(strings::ToUpper("AbC"), "ABC");
  EXPECT_TRUE(strings::EqualsIgnoreCase("Content-Type", "content-type"));
  EXPECT_FALSE(strings::EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(strings::StartsWith("/api/v1/jobs", "/api/v1"));
  EXPECT_FALSE(strings::StartsWith("/api", "/api/v1"));
  EXPECT_TRUE(strings::EndsWith("result.zip", ".zip"));
  EXPECT_FALSE(strings::EndsWith("zip", "result.zip"));
}

TEST(StringsTest, HexEncode) {
  EXPECT_EQ(strings::HexEncode(std::string("\x00\xff\x10", 3)), "00ff10");
}

TEST(StringsTest, Base64RoundTrip) {
  const std::string cases[] = {"", "f", "fo", "foo", "foob", "fooba",
                               "foobar", std::string("\x00\x01\xfe", 3)};
  for (const std::string& input : cases) {
    std::string decoded;
    ASSERT_TRUE(strings::Base64Decode(strings::Base64Encode(input), &decoded));
    EXPECT_EQ(decoded, input);
  }
}

TEST(StringsTest, Base64KnownVectors) {
  EXPECT_EQ(strings::Base64Encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(strings::Base64Encode("fo"), "Zm8=");
}

TEST(StringsTest, Base64RejectsMalformed) {
  std::string out;
  EXPECT_FALSE(strings::Base64Decode("abc", &out));     // Bad length.
  EXPECT_FALSE(strings::Base64Decode("a=bc", &out));    // Data after pad.
  EXPECT_FALSE(strings::Base64Decode("ab!d", &out));    // Bad char.
  EXPECT_FALSE(strings::Base64Decode("=abc", &out));    // Pad too early.
}

TEST(StringsTest, UrlEncodeDecodeRoundTrip) {
  std::string input = "a b/c?d=e&f%g";
  std::string encoded = strings::UrlEncode(input);
  std::string decoded;
  ASSERT_TRUE(strings::UrlDecode(encoded, &decoded));
  EXPECT_EQ(decoded, input);
}

TEST(StringsTest, UrlDecodeRejectsTruncatedEscape) {
  std::string out;
  EXPECT_FALSE(strings::UrlDecode("abc%2", &out));
  EXPECT_FALSE(strings::UrlDecode("abc%zz", &out));
}

TEST(StringsTest, ParseNumbers) {
  uint64_t u;
  EXPECT_TRUE(strings::ParseUint64("123", &u));
  EXPECT_EQ(u, 123u);
  EXPECT_FALSE(strings::ParseUint64("", &u));
  EXPECT_FALSE(strings::ParseUint64("12x", &u));
  EXPECT_FALSE(strings::ParseUint64("-1", &u));

  int64_t i;
  EXPECT_TRUE(strings::ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);

  double d;
  EXPECT_TRUE(strings::ParseDouble("3.5e2", &d));
  EXPECT_DOUBLE_EQ(d, 350.0);
  EXPECT_FALSE(strings::ParseDouble("3.5x", &d));
}

TEST(StringsTest, PadNumber) {
  EXPECT_EQ(strings::PadNumber(7, 3), "007");
  EXPECT_EQ(strings::PadNumber(1234, 3), "1234");
}

// --- uuid ---

TEST(UuidTest, FormatIsValid) {
  std::string id = GenerateUuid();
  EXPECT_TRUE(IsValidUuid(id));
  EXPECT_EQ(id[14], '4');  // Version nibble.
}

TEST(UuidTest, UniqueAcrossMany) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(GenerateUuid());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(UuidTest, RejectsMalformed) {
  EXPECT_FALSE(IsValidUuid(""));
  EXPECT_FALSE(IsValidUuid("de305d54-75b4-431b-adb2-eb6b9e54601"));   // Short.
  EXPECT_FALSE(IsValidUuid("de305d54x75b4-431b-adb2-eb6b9e546014"));  // Sep.
  EXPECT_FALSE(IsValidUuid("ge305d54-75b4-431b-adb2-eb6b9e546014"));  // Hex.
}

// --- clock ---

TEST(ClockTest, SystemClockAdvances) {
  SystemClock* clock = SystemClock::Get();
  uint64_t a = clock->MonotonicNanos();
  uint64_t b = clock->MonotonicNanos();
  EXPECT_GE(b, a);
  EXPECT_GT(clock->NowMs(), 1500000000000ll);  // Later than 2017.
}

TEST(ClockTest, SimulatedClockIsManual) {
  SimulatedClock clock(1000);
  EXPECT_EQ(clock.NowMs(), 1000);
  clock.AdvanceMs(500);
  EXPECT_EQ(clock.NowMs(), 1500);
  clock.SleepMs(250);  // Sleep advances, never blocks.
  EXPECT_EQ(clock.NowMs(), 1750);
  clock.SetMs(42);
  EXPECT_EQ(clock.NowMs(), 42);
}

TEST(ClockTest, FormatTimestamp) {
  // 2020-03-30 00:00:00 UTC (the EDBT 2020 start date).
  EXPECT_EQ(FormatTimestamp(1585526400000ll), "2020-03-30 00:00:00");
}

// --- rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// --- logging ---

TEST(LoggingTest, SinkReceivesRecords) {
  Logger::Get()->set_stderr_enabled(false);
  CaptureLogSink sink;
  CHRONOS_LOG(kInfo, "test") << "hello " << 42;
  auto records = sink.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "test");
  EXPECT_EQ(records[0].message, "hello 42");
  EXPECT_EQ(records[0].level, LogLevel::kInfo);
}

TEST(LoggingTest, MinLevelFilters) {
  Logger::Get()->set_stderr_enabled(false);
  Logger::Get()->set_min_level(LogLevel::kWarning);
  CaptureLogSink sink;
  CHRONOS_LOG(kInfo, "test") << "dropped";
  CHRONOS_LOG(kError, "test") << "kept";
  auto records = sink.Drain();
  Logger::Get()->set_min_level(LogLevel::kDebug);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].message, "kept");
}

TEST(LoggingTest, ThrowingSinkDoesNotStarveOthers) {
  Logger::Get()->set_stderr_enabled(false);
  uint64_t dropped_before = Logger::Get()->dropped_records();
  int throwing_id = Logger::Get()->AddSink(
      [](const LogRecord&) { throw std::runtime_error("bad sink"); });
  CaptureLogSink sink;
  CHRONOS_LOG(kInfo, "test") << "survives";
  CHRONOS_LOG(kInfo, "test") << "still survives";
  Logger::Get()->RemoveSink(throwing_id);

  // The well-behaved sink saw every record and the losses were counted.
  auto records = sink.Drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].message, "survives");
  EXPECT_EQ(Logger::Get()->dropped_records(), dropped_before + 2);

  // The logger itself is unharmed (mutex not poisoned, sinks still fire).
  CHRONOS_LOG(kInfo, "test") << "after removal";
  EXPECT_EQ(sink.Drain().size(), 1u);
}

TEST(LoggingTest, FormatContainsLevelAndComponent) {
  LogRecord record;
  record.timestamp_ms = 1585526400000ll;
  record.level = LogLevel::kWarning;
  record.component = "scheduler";
  record.message = "job timed out";
  EXPECT_EQ(record.Format(),
            "2020-03-30 00:00:00 [WARN] scheduler: job timed out");
}

// --- file util ---

TEST(FileUtilTest, WriteReadRoundTrip) {
  file::TempDir dir;
  std::string path = dir.path() + "/f.txt";
  ASSERT_TRUE(file::WriteFile(path, "contents\n").ok());
  auto read = file::ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "contents\n");
}

TEST(FileUtilTest, AppendAccumulates) {
  file::TempDir dir;
  std::string path = dir.path() + "/f.txt";
  ASSERT_TRUE(file::AppendFile(path, "a").ok());
  ASSERT_TRUE(file::AppendFile(path, "b").ok());
  EXPECT_EQ(*file::ReadFile(path), "ab");
}

TEST(FileUtilTest, ReadMissingFails) {
  EXPECT_FALSE(file::ReadFile("/nonexistent/nope").ok());
}

TEST(FileUtilTest, ListDirSorted) {
  file::TempDir dir;
  ASSERT_TRUE(file::WriteFile(dir.path() + "/b", "").ok());
  ASSERT_TRUE(file::WriteFile(dir.path() + "/a", "").ok());
  auto names = file::ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ((*names)[0], "a");
  EXPECT_EQ((*names)[1], "b");
}

TEST(FileUtilTest, TempDirRemovedOnDestruction) {
  std::string path;
  {
    file::TempDir dir;
    path = dir.path();
    EXPECT_TRUE(file::Exists(path));
  }
  EXPECT_FALSE(file::Exists(path));
}

// --- histogram ---

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  // Bucketed percentile has bounded relative error (~3% here).
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 50, 4);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99, 4);
}

TEST(HistogramTest, PercentileNeverExceedsMax) {
  Histogram h;
  h.Record(7);
  h.Record(1000000);
  EXPECT_LE(h.Percentile(1.0), 1000000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_NEAR(a.mean(), 20.0, 0.01);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(42);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

TEST(HistogramTest, EmptyPercentileIsZeroForAllQuantiles) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(HistogramTest, MergeDisjointRanges) {
  Histogram low, high;
  for (uint64_t v = 1; v <= 10; ++v) low.Record(v);
  for (uint64_t v = 1000000; v <= 1000009; ++v) high.Record(v);
  low.Merge(high);
  EXPECT_EQ(low.count(), 20u);
  EXPECT_EQ(low.min(), 1u);
  EXPECT_EQ(low.max(), 1000009u);
  // Median sits at the top of the low cluster; p99 lands in the high one.
  EXPECT_LE(low.Percentile(0.5), 11u);
  EXPECT_GE(low.Percentile(0.99), 1000000u);
  // Merging into an empty histogram adopts the source's extrema.
  Histogram empty;
  empty.Merge(low);
  EXPECT_EQ(empty.count(), 20u);
  EXPECT_EQ(empty.min(), 1u);
  EXPECT_EQ(empty.max(), 1000009u);
}

TEST(HistogramTest, RecordManyExtremeValuesAndCounts) {
  Histogram h;
  h.RecordMany(UINT64_MAX, 3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  // The top bucket's upper bound saturates instead of overflowing.
  EXPECT_EQ(h.Percentile(1.0), UINT64_MAX);

  // Huge counts don't overflow the total.
  Histogram many;
  many.RecordMany(5, 1ull << 40);
  EXPECT_EQ(many.count(), 1ull << 40);
  EXPECT_EQ(many.Percentile(0.5), many.Percentile(1.0));
  EXPECT_NEAR(many.mean(), 5.0, 1e-6);

  // count = 0 is a no-op.
  Histogram none;
  none.RecordMany(7, 0);
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.max(), 0u);
}

TEST(HistogramTest, ConcurrentRecordIsSafe) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.Record(i % 100);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 8000u);
}

}  // namespace
}  // namespace chronos
