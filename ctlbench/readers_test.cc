#include "readers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ctlbench {
namespace {

// Shaped like chronos_control_server's /metrics: summaries rendered with
// quantiles plus _sum/_count, route labels that contain braces.
constexpr char kMetrics[] =
    R"(# HELP chronos_http_request_latency_us Request dispatch latency
# TYPE chronos_http_request_latency_us summary
chronos_http_request_latency_us{route="/api/v2/agent/poll",quantile="0.5"} 40000
chronos_http_request_latency_us_sum{route="/api/v2/agent/poll"} 120000
chronos_http_request_latency_us_count{route="/api/v2/agent/poll"} 3
chronos_http_request_latency_us_sum{route="/api/v2/jobs/{id}"} 900
chronos_http_request_latency_us_count{route="/api/v2/jobs/{id}"} 9
# TYPE chronos_http_requests_total counter
chronos_http_requests_total{method="GET",route="/api/v2/jobs/{id}"} 9
chronos_http_requests_total{method="POST",route="/api/v2/agent/poll"} 3
chronos_http_requests_total{method="POST",route="a \"quoted\" \\ path"} 1
chronos_wal_appends_total 1234
chronos_wal_bytes_total 5.5e6 1700000000000
)";

TEST(MetricsTextTest, SumsByRouteLabel) {
  auto text = MetricsText::Parse(kMetrics);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->Sum("chronos_http_request_latency_us_sum", "route",
                      "/api/v2/agent/poll"),
            120000);
  EXPECT_EQ(text->Sum("chronos_http_request_latency_us_count", "route",
                      "/api/v2/jobs/{id}"),
            9);
  EXPECT_EQ(text->Sum("chronos_http_request_latency_us_count", "route",
                      "/api/v2/nothing"),
            0);
}

TEST(MetricsTextTest, CountersAndEscapes) {
  auto text = MetricsText::Parse(kMetrics);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->Sum("chronos_http_requests_total"), 13);
  EXPECT_EQ(text->Sum("chronos_http_requests_total", "route",
                      "a \"quoted\" \\ path"),
            1);
  EXPECT_EQ(text->Sum("chronos_wal_appends_total"), 1234);
  EXPECT_EQ(text->Sum("chronos_wal_bytes_total"), 5.5e6);
}

TEST(MetricsTextTest, RejectsMalformedLines) {
  EXPECT_FALSE(MetricsText::Parse("name{route=\"x} 1\n").ok());
  EXPECT_FALSE(MetricsText::Parse("name{route=x} 1\n").ok());
  EXPECT_FALSE(MetricsText::Parse("name notanumber\n").ok());
  EXPECT_FALSE(MetricsText::Parse("lonely\n").ok());
}

TEST(ProcReadersTest, StatCpuSecondsSkipsTrickyCommand) {
  // The command name holds spaces and a ')'; utime=250, stime=50 ticks.
  std::string stat =
      "4242 (chronos (x) srv) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 "
      "0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
  auto seconds = ParseProcStatCpuSeconds(stat, 100);
  ASSERT_TRUE(seconds.ok());
  EXPECT_DOUBLE_EQ(*seconds, 3.0);
  EXPECT_FALSE(ParseProcStatCpuSeconds("4242 (short) S 1 2", 100).ok());
  EXPECT_FALSE(ParseProcStatCpuSeconds(stat, 0).ok());
}

TEST(ProcReadersTest, VmHwm) {
  auto kb = ParseVmHwmKb(
      "Name:\tchronos_control\nVmPeak:\t  900000 kB\nVmHWM:\t   81234 kB\n"
      "VmRSS:\t   80000 kB\n");
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(*kb, 81234);
  EXPECT_FALSE(ParseVmHwmKb("Name:\tx\n").ok());
  EXPECT_FALSE(ParseVmHwmKb("VmHWM:\t lots kB\n").ok());
}

TEST(ProcReadersTest, ReadsThisProcess) {
  EXPECT_TRUE(ReadCpuSeconds(getpid()).ok());
  auto kb = ReadVmHwmKb(getpid());
  ASSERT_TRUE(kb.ok());
  EXPECT_GT(*kb, 0);
}

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted input.
  return values;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_EQ(Percentile(OneTo(20), 0.5), 10);
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 1.0).has_value());
}

}  // namespace
}  // namespace ctlbench
