#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "json/json.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace chronos::obs {
namespace {

TEST(MetricsRegistryTest, CounterIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_total", "help");
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test_depth", "help");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Add(3);
  EXPECT_EQ(gauge->value(), 10);
}

TEST(MetricsRegistryTest, HistogramObserves) {
  MetricsRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("test_latency_us");
  histogram->Observe(100);
  histogram->Observe(200);
  histogram->Observe(300);
  EXPECT_EQ(histogram->count(), 3u);
  EXPECT_EQ(histogram->sum(), 600u);
  EXPECT_GE(histogram->Percentile(1.0), 300u);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "help",
                                   {{"route", "/x"}});
  Counter* b = registry.GetCounter("requests_total", "",
                                   {{"route", "/x"}});
  EXPECT_EQ(a, b);
  // A different label set is a different series in the same family.
  Counter* c = registry.GetCounter("requests_total", "", {{"route", "/y"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("t", "", {{"a", "1"}, {"b", "2"}});
  Counter* b = registry.GetCounter("t", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, KindConflictReturnsDetachedDummy) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mixed", "first registration wins");
  counter->Increment();
  // Asking for the same name as a gauge must not crash or disturb the
  // counter; the caller gets a detached handle.
  Gauge* gauge = registry.GetGauge("mixed");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(99);
  EXPECT_EQ(counter->value(), 1u);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE mixed counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE mixed gauge"), std::string::npos);
}

TEST(MetricsRegistryTest, RenderPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("b_total", "b help")->Increment(7);
  registry.GetGauge("a_depth", "a help")->Set(-2);
  registry.GetCounter("c_total", "", {{"route", "/api"}})->Increment(3);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP b_total b help\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("b_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("a_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("c_total{route=\"/api\"} 3\n"), std::string::npos);
  // Families render sorted by name.
  EXPECT_LT(text.find("a_depth"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("c_total"));
}

TEST(MetricsRegistryTest, RenderEscapesLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("esc_total", "", {{"path", "a\\b\"c\nd"}})->Increment();
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, HistogramRendersAsSummaryWithQuantiles) {
  MetricsRegistry registry;
  HistogramMetric* histogram =
      registry.GetHistogram("lat_us", "latency", {{"route", "/r"}});
  for (int i = 1; i <= 100; ++i) histogram->Observe(i);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE lat_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.9\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum{route=\"/r\"} 5050\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count{route=\"/r\"} 100\n"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectionHooksRunOnRender) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("hooked");
  int runs = 0;
  registry.AddCollectionHook([&] {
    ++runs;
    gauge->Set(runs);
  });
  std::string text = registry.RenderPrometheus();
  EXPECT_EQ(runs, 1);
  EXPECT_NE(text.find("hooked 1\n"), std::string::npos);
  registry.RenderPrometheus();
  EXPECT_EQ(runs, 2);
}

TEST(MetricsRegistryTest, ConcurrentGetAndIncrement) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("contended_total")->Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("contended_total")->value(), 8000u);
}

TEST(MetricsRegistryTest, GlobalInstanceExposesLoggerDrops) {
  std::string text = MetricsRegistry::Get()->RenderPrometheus();
  EXPECT_NE(text.find("chronos_logger_dropped_records"), std::string::npos);
}

TEST(TraceTest, GenerateProducesValidContext) {
  TraceContext trace = TraceContext::Generate();
  EXPECT_EQ(trace.trace_id.size(), 32u);
  EXPECT_EQ(trace.span_id.size(), 16u);
  EXPECT_TRUE(trace.valid());
  // Distinct per call.
  EXPECT_NE(trace.trace_id, TraceContext::Generate().trace_id);
}

TEST(TraceTest, HeaderRoundTrip) {
  TraceContext trace = TraceContext::Generate();
  std::string header = trace.ToHeader();
  EXPECT_EQ(header, trace.trace_id + "-" + trace.span_id);
  auto parsed = TraceContext::Parse(header);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace_id, trace.trace_id);
  EXPECT_EQ(parsed->span_id, trace.span_id);
}

TEST(TraceTest, ParseRejectsMalformed) {
  EXPECT_FALSE(TraceContext::Parse("").ok());
  EXPECT_FALSE(TraceContext::Parse("not-a-trace").ok());
  EXPECT_FALSE(TraceContext::Parse(std::string(32, 'g') + "-" +
                                   std::string(16, '0'))
                   .ok());
  EXPECT_FALSE(TraceContext::Parse(std::string(32, '0') + ":" +
                                   std::string(16, '0'))
                   .ok());
  EXPECT_FALSE(
      TraceContext::Parse(std::string(31, '0') + "-" + std::string(17, '0'))
          .ok());
  EXPECT_TRUE(TraceContext::Parse(std::string(32, 'a') + "-" +
                                  std::string(16, '0'))
                  .ok());
}

TEST(TraceTest, ChildKeepsTraceIdChangesSpan) {
  TraceContext parent = TraceContext::Generate();
  TraceContext child = parent.Child();
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_NE(child.span_id, parent.span_id);
}

TEST(TraceTest, FromHeaderOrNewAdoptsOrStartsFresh) {
  TraceContext remote = TraceContext::Generate();
  TraceContext adopted = TraceContext::FromHeaderOrNew(remote.ToHeader());
  EXPECT_EQ(adopted.trace_id, remote.trace_id);
  EXPECT_NE(adopted.span_id, remote.span_id);

  TraceContext fresh = TraceContext::FromHeaderOrNew("garbage");
  EXPECT_TRUE(fresh.valid());
  EXPECT_NE(fresh.trace_id, remote.trace_id);
}

TEST(TraceTest, ScopeStampsLogRecordsAndRestores) {
  CaptureLogSink capture;
  CHRONOS_LOG(kInfo, "test") << "before";
  TraceContext trace = TraceContext::Generate();
  {
    TraceScope scope(trace);
    EXPECT_EQ(CurrentTrace().trace_id, trace.trace_id);
    CHRONOS_LOG(kInfo, "test") << "inside";
    {
      TraceScope nested(trace.Child());
      EXPECT_EQ(CurrentTrace().trace_id, trace.trace_id);
      EXPECT_NE(CurrentTrace().span_id, trace.span_id);
    }
    // Inner scope restored the outer span.
    EXPECT_EQ(CurrentTrace().span_id, trace.span_id);
  }
  EXPECT_FALSE(CurrentTrace().valid());
  CHRONOS_LOG(kInfo, "test") << "after";

  std::vector<LogRecord> records = capture.Drain();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].trace_id.empty());
  EXPECT_EQ(records[1].trace_id, trace.trace_id);
  EXPECT_EQ(records[1].span_id, trace.span_id);
  EXPECT_TRUE(records[2].trace_id.empty());
  // The formatted line carries the ids for grep-ability.
  EXPECT_NE(records[1].Format().find("trace=" + trace.trace_id),
            std::string::npos);
}

TEST(TraceTest, ScopeIsPerThread) {
  TraceContext trace = TraceContext::Generate();
  TraceScope scope(trace);
  std::string other_thread_trace = "unset";
  std::thread thread([&other_thread_trace] {
    other_thread_trace = CurrentTrace().trace_id;
  });
  thread.join();
  EXPECT_EQ(other_thread_trace, "");
  EXPECT_EQ(CurrentTrace().trace_id, trace.trace_id);
}

TEST(TraceTest, MalformedHeadersAreRejectedAndCounted) {
  Counter* malformed = MetricsRegistry::Get()->GetCounter(
      "chronos_trace_header_malformed_total",
      "X-Chronos-Trace headers discarded as unparseable");
  // Fixed ids so case-damage below is guaranteed to touch a hex letter.
  const std::string valid =
      "0123456789abcdef0123456789abcdef-0123456789abcdef";
  ASSERT_TRUE(TraceContext::Parse(valid).ok());

  // Absent and valid headers never count as malformed.
  uint64_t before = malformed->value();
  EXPECT_FALSE(TraceContext::FromHeader("").has_value());
  auto remote = TraceContext::FromHeader(valid);
  ASSERT_TRUE(remote.has_value());
  // FromHeader returns the remote context VERBATIM (exact parenting at
  // ingress); Child() is the caller's choice.
  EXPECT_EQ(remote->ToHeader(), valid);
  EXPECT_EQ(malformed->value(), before);

  // Property sweep: truncations at various lengths, uppercase hex, alphabet
  // damage, separator damage, overlong input. Every one must be rejected,
  // counted exactly once, and degrade FromHeaderOrNew to a fresh trace.
  std::vector<std::string> garbage;
  for (size_t len = 1; len < valid.size(); len += 7) {
    garbage.push_back(valid.substr(0, len));
  }
  std::string upper = valid;
  for (char& c : upper) c = static_cast<char>(toupper(c));
  garbage.push_back(upper);
  garbage.push_back(valid + "00");
  std::string bad_separator = valid;
  bad_separator[TraceContext::kTraceIdLength] = '_';
  garbage.push_back(bad_separator);
  std::string bad_alphabet = valid;
  bad_alphabet[3] = 'g';
  garbage.push_back(bad_alphabet);
  garbage.push_back("-");
  garbage.push_back(std::string(valid.size(), 'z'));
  for (const std::string& header : garbage) {
    uint64_t count = malformed->value();
    EXPECT_FALSE(TraceContext::FromHeader(header).has_value())
        << "accepted garbage: " << header;
    EXPECT_EQ(malformed->value(), count + 1) << "not counted: " << header;
    EXPECT_TRUE(TraceContext::FromHeaderOrNew(header).valid());
  }
}

// --- Span / SpanCollector ---

TEST(SpanTest, NestedSpansParentAndRestoreScope) {
  SpanCollector collector(/*capacity=*/64, /*shards=*/4);
  std::string trace_id;
  std::string outer_span_id;
  {
    Span outer("outer", &collector);
    ASSERT_TRUE(outer.context().valid());
    trace_id = outer.context().trace_id;
    outer_span_id = outer.context().span_id;
    EXPECT_EQ(CurrentTrace().trace_id, trace_id);
    {
      Span inner("inner", &collector);
      EXPECT_EQ(inner.context().trace_id, trace_id);
      EXPECT_NE(inner.context().span_id, outer_span_id);
      EXPECT_EQ(CurrentTrace().span_id, inner.context().span_id);
    }
    // Inner End() restored the outer context.
    EXPECT_EQ(CurrentTrace().span_id, outer_span_id);
  }
  EXPECT_FALSE(CurrentTrace().valid());

  std::vector<SpanRecord> spans = collector.ForTrace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  const SpanRecord& inner = spans[0].name == "inner" ? spans[0] : spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_TRUE(outer.parent_span_id.empty());
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.end_nanos, span.start_nanos);
  }
  EXPECT_EQ(collector.recorded(), 2u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(SpanTest, DisabledCollectorIsInert) {
  SpanCollector collector(/*capacity=*/64, /*shards=*/4);
  collector.set_enabled(false);
  {
    Span span("noop", &collector);
    EXPECT_FALSE(span.context().valid());
    // No scope installed either: log correlation falls back to the caller.
    EXPECT_FALSE(CurrentTrace().valid());
    span.SetAttribute("k", "v");  // Must be a no-op, not a crash.
  }
  EXPECT_EQ(collector.recorded(), 0u);
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(SpanTest, StatusAndAttributesLandInTheRecord) {
  SpanCollector collector(/*capacity=*/64, /*shards=*/4);
  std::string trace_id;
  {
    Span span("op", &collector);
    trace_id = span.context().trace_id;
    span.SetAttribute("job_id", "j1");
    span.SetStatus(Status::Ok());  // Ok must not overwrite anything.
    span.SetError("boom");
  }
  std::vector<SpanRecord> spans = collector.ForTrace(trace_id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].status, "boom");
  ASSERT_EQ(spans[0].attributes.size(), 1u);
  EXPECT_EQ(spans[0].attributes[0].first, "job_id");
  EXPECT_EQ(spans[0].attributes[0].second, "j1");
}

TEST(SpanCollectorTest, EvictsOldestFirstAndCountsDrops) {
  SpanCollector collector(/*capacity=*/4, /*shards=*/1);
  for (int i = 0; i < 6; ++i) {
    SpanRecord record;
    record.trace_id = "feed";
    record.span_id = "span" + std::to_string(i);
    record.name = "op" + std::to_string(i);
    record.start_nanos = static_cast<uint64_t>(i);
    record.end_nanos = static_cast<uint64_t>(i) + 1;
    collector.Record(std::move(record));
  }
  EXPECT_EQ(collector.recorded(), 6u);
  EXPECT_EQ(collector.dropped(), 2u);
  std::vector<SpanRecord> spans = collector.ForTrace("feed");
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "op2");  // The two oldest were evicted.
  EXPECT_EQ(spans.back().name, "op5");
  EXPECT_FALSE(collector.Contains("feed", "span0"));
  EXPECT_TRUE(collector.Contains("feed", "span5"));
  EXPECT_EQ(collector.active_traces(), 1u);
}

TEST(SpanCollectorTest, SnapshotSinceIsAShippingCursor) {
  SpanCollector collector(/*capacity=*/64, /*shards=*/4);
  auto make = [](const std::string& trace, const std::string& span) {
    SpanRecord record;
    record.trace_id = trace;
    record.span_id = span;
    record.name = span;
    return record;
  };
  uint64_t first = collector.Record(make("aaaa", "s1"));
  uint64_t second = collector.Record(make("bbbb", "s2"));
  EXPECT_LT(first, second);
  std::vector<SpanRecord> tail = collector.SnapshotSince(first);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].span_id, "s2");
  EXPECT_EQ(collector.Snapshot().size(), 2u);
  EXPECT_EQ(collector.active_traces(), 2u);
  EXPECT_GE(collector.last_seq(), second);
  collector.Clear();
  EXPECT_TRUE(collector.Snapshot().empty());
  EXPECT_EQ(collector.active_traces(), 0u);
  EXPECT_EQ(collector.recorded(), 2u);  // Lifetime counters survive Clear.
}

TEST(SpanTest, SlowSpansWarnWithAttributesAndCount) {
  SimulatedClock clock;
  SpanCollector collector(/*capacity=*/64, /*shards=*/4, &clock);
  collector.set_slow_span_threshold_ms(10);
  Counter* slow = MetricsRegistry::Get()->GetCounter(
      "chronos_slow_spans_total",
      "Spans exceeding the slow-span threshold, by span name",
      {{"span", "slow.op"}});
  uint64_t before = slow->value();
  CaptureLogSink capture;
  {
    Span fast("fast.op", &collector);
    clock.AdvanceMs(5);  // Under threshold: no WARN, no count.
  }
  {
    Span span("slow.op", &collector);
    span.SetAttribute("job_id", "j1");
    clock.AdvanceMs(50);
  }
  EXPECT_EQ(slow->value(), before + 1);
  bool warned = false;
  for (const LogRecord& record : capture.Drain()) {
    if (record.level != LogLevel::kWarning) continue;
    if (record.message.find("slow span slow.op") == std::string::npos) {
      continue;
    }
    warned = true;
    EXPECT_NE(record.message.find("job_id=j1"), std::string::npos);
    EXPECT_NE(record.message.find("threshold 10ms"), std::string::npos);
    EXPECT_EQ(record.message.find("fast.op"), std::string::npos);
  }
  EXPECT_TRUE(warned);
}

TEST(SpanCollectorTest, ConcurrentRecordAndSnapshotAreSafe) {
  SpanCollector collector(/*capacity=*/512, /*shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread reader([&collector, &stop] {
    while (!stop.load()) {
      collector.Snapshot();
      collector.ForTrace("absent");
      collector.active_traces();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&collector] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("stress.op", &collector);
        span.SetAttribute("i", std::to_string(i));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  // Exactly one record per span; everything not retained was counted as
  // dropped — no double counting, no losses.
  EXPECT_EQ(collector.recorded(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(collector.recorded(),
            collector.dropped() + collector.Snapshot().size());
}

// --- Serialization & rendering ---

TEST(SpanSerializationTest, JsonRoundTripPreservesEverything) {
  SpanRecord record;
  record.trace_id = "0123456789abcdef0123456789abcdef";
  record.span_id = "0123456789abcdef";
  record.parent_span_id = "fedcba9876543210";
  record.name = "control.claim";
  record.start_nanos = 1000;
  record.end_nanos = 4500;
  record.status = "deadline exceeded";
  record.attributes = {{"job_id", "j1"}, {"deployment_id", "d1"}};
  auto round = SpanFromJson(SpanToJson(record));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->trace_id, record.trace_id);
  EXPECT_EQ(round->span_id, record.span_id);
  EXPECT_EQ(round->parent_span_id, record.parent_span_id);
  EXPECT_EQ(round->name, record.name);
  EXPECT_EQ(round->start_nanos, record.start_nanos);
  EXPECT_EQ(round->end_nanos, record.end_nanos);
  EXPECT_EQ(round->status, record.status);
  EXPECT_EQ(round->attributes.size(), record.attributes.size());

  // Malformed inputs fail closed rather than fabricating spans.
  EXPECT_FALSE(SpanFromJson(json::Json::MakeArray()).ok());
  EXPECT_FALSE(SpanFromJson(json::Json::MakeObject()).ok());
}

TEST(SpanRenderTest, ChromeTraceHasLanesAndCompleteEvents) {
  SpanCollector collector(/*capacity=*/64, /*shards=*/4);
  std::string trace_id;
  {
    Span control("control.claim", &collector);
    trace_id = control.context().trace_id;
    Span agent("agent.execute", &collector);
    agent.End();
  }
  std::vector<SpanRecord> spans = collector.ForTrace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  auto parsed = json::Parse(RenderChromeTrace(spans));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetStringOr("displayTimeUnit", ""), "ms");
  const json::Json& events = parsed->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  size_t complete_events = 0;
  for (const json::Json& event : events.as_array()) {
    if (event.GetStringOr("ph", "") == "M") continue;  // Lane metadata.
    ++complete_events;
    EXPECT_EQ(event.GetStringOr("ph", ""), "X");
    EXPECT_EQ(event.GetStringOr("cat", ""), "chronos");
    for (const char* key : {"name", "ts", "dur", "pid", "tid", "args"}) {
      EXPECT_TRUE(event.Has(key)) << "missing key " << key;
    }
    EXPECT_EQ(event.GetIntOr("tid", 0),
              event.GetStringOr("name", "") == "agent.execute" ? 2 : 1);
    EXPECT_EQ(event.at("args").GetStringOr("trace_id", ""), trace_id);
  }
  EXPECT_EQ(complete_events, 2u);
}

TEST(SpanRenderTest, TreeIndentsChildrenAndKeepsOrphans) {
  SpanRecord root;
  root.trace_id = "t";
  root.span_id = "aaaa";
  root.name = "agent.poll";
  root.start_nanos = 0;
  root.end_nanos = 5000000;
  SpanRecord child;
  child.trace_id = "t";
  child.span_id = "bbbb";
  child.parent_span_id = "aaaa";
  child.name = "control.claim";
  child.start_nanos = 1000;
  child.end_nanos = 2000000;
  child.status = "boom";
  SpanRecord orphan;
  orphan.trace_id = "t";
  orphan.span_id = "cccc";
  orphan.parent_span_id = "gone";  // Parent not shipped (yet).
  orphan.name = "wal.append";
  orphan.start_nanos = 500;
  orphan.end_nanos = 600;

  std::string tree = RenderSpanTree({root, child, orphan});
  EXPECT_NE(tree.find("agent.poll  5.000ms"), std::string::npos);
  EXPECT_NE(tree.find("\n  control.claim"), std::string::npos);  // Indented.
  EXPECT_NE(tree.find("status=boom"), std::string::npos);
  // The orphan renders at root level instead of disappearing.
  EXPECT_NE(tree.find("\nwal.append"), std::string::npos);
}

}  // namespace
}  // namespace chronos::obs
