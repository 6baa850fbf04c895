#ifndef CHRONOS_OBS_SPAN_H_
#define CHRONOS_OBS_SPAN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "obs/trace.h"

namespace chronos::obs {

// A finished timed operation: one node of a Dapper-style trace tree. All
// timestamps are steady-clock nanoseconds from the collector's Clock, so
// durations are immune to wall-clock steps and — both processes sharing one
// CLOCK_MONOTONIC epoch on a host — Agent and Control spans of the same
// machine line up on one timeline.
struct SpanRecord {
  std::string trace_id;        // 32 lowercase hex (see trace.h).
  std::string span_id;         // 16 lowercase hex.
  std::string parent_span_id;  // Empty for a root span.
  std::string name;            // e.g. "control.claim", "wal.append".
  uint64_t start_nanos = 0;
  uint64_t end_nanos = 0;
  std::string status = "ok";   // "ok" or an error summary.
  std::vector<std::pair<std::string, std::string>> attributes;
  // Collector-local record sequence, assigned at Record() time. Strictly
  // increasing per process; the agent's shipping cursor rides on it.
  uint64_t seq = 0;

  uint64_t duration_nanos() const {
    return end_nanos >= start_nanos ? end_nanos - start_nanos : 0;
  }
};

// Process-wide sink for finished spans: a fixed-capacity ring buffer sharded
// BY TRACE ID, so every span of a trace lands in the same shard and
// per-trace lookup touches exactly one mutex. When a shard is full the
// oldest span is evicted and counted in chronos_spans_dropped_total — heavy
// traffic degrades trace completeness, never memory.
class SpanCollector {
 public:
  // `capacity` is the total span budget, split evenly across `shards`.
  explicit SpanCollector(size_t capacity = kDefaultCapacity,
                         size_t shards = kDefaultShards,
                         Clock* clock = nullptr);

  // The process-wide collector every Span records into by default.
  static SpanCollector* Get();

  // Collection switch. Disarmed, Span construction is a couple of relaxed
  // atomic loads and nothing is recorded; ships enabled in release.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Spans at least this long are logged at WARN and counted in
  // chronos_slow_spans_total{span=<name>}. 0 disables the policy.
  void set_slow_span_threshold_ms(int64_t ms) {
    slow_span_threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  int64_t slow_span_threshold_ms() const {
    return slow_span_threshold_ms_.load(std::memory_order_relaxed);
  }

  Clock* clock() const { return clock_; }

  // Stores a finished span (evicting the shard's oldest if full) and returns
  // its assigned sequence number.
  uint64_t Record(SpanRecord record);

  // All retained spans of a trace, sorted by (start_nanos, seq).
  std::vector<SpanRecord> ForTrace(const std::string& trace_id) const;

  // All retained spans with seq > after_seq, sorted by seq. The agent's
  // piggyback shipping drains through this cursor.
  std::vector<SpanRecord> SnapshotSince(uint64_t after_seq) const;
  std::vector<SpanRecord> Snapshot() const { return SnapshotSince(0); }

  // True if the span is currently retained — the import-side dedupe for
  // at-least-once shipping.
  bool Contains(const std::string& trace_id, const std::string& span_id) const;

  // Lifetime counters (survive eviction) and current distinct-trace count.
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t last_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  size_t active_traces() const;

  // Drops every retained span (counters keep their lifetime values); tests
  // sharing the process-wide collector isolate themselves with this.
  void Clear();

  static constexpr size_t kDefaultCapacity = 8192;
  static constexpr size_t kDefaultShards = 8;

 private:
  struct Shard {
    mutable Mutex mu;
    std::deque<SpanRecord> ring CHRONOS_GUARDED_BY(mu);
    // trace_id -> number of retained spans; keys vanish at zero, so
    // size() == distinct traces currently in the shard.
    std::unordered_map<std::string, uint32_t> live CHRONOS_GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& trace_id) const;

  const size_t per_shard_capacity_;
  Clock* const clock_;
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> slow_span_threshold_ms_{0};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII timed span. Construction adopts the thread's current trace context as
// parent (starting a fresh trace if none is active) and installs its own ids
// as current, so nested Spans and CHRONOS_LOG lines parent/stamp correctly;
// End() (or destruction) restores the previous context and records into the
// collector. When the collector is disabled the constructor does no id
// generation and End() records nothing.
//
// Spans must nest like scopes on one thread — end the innermost first. To
// cross threads, capture CurrentTrace() and install it on the other thread
// with a TraceScope.
class Span {
 public:
  explicit Span(std::string name, SpanCollector* collector = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Renaming is allowed until End() — the router names its server span after
  // route matching so the slow-span metric gets a bounded label.
  void SetName(std::string name);
  void SetAttribute(const std::string& key, std::string value);
  // Any non-ok status marks the span failed with the message as status.
  void SetStatus(const Status& status);
  void SetError(std::string message);

  // Ends and records the span (idempotent; destructor calls it).
  void End();

  // This span's ids; !valid() when the collector was disabled at
  // construction.
  const TraceContext& context() const { return context_; }

  // 0 until End().
  uint64_t duration_nanos() const {
    return record_.end_nanos >= record_.start_nanos
               ? record_.end_nanos - record_.start_nanos
               : 0;
  }

 private:
  SpanCollector* collector_;
  bool armed_ = false;
  bool ended_ = false;
  TraceContext context_;
  TraceIds previous_;
  SpanRecord record_;
};

// --- Serialization & rendering --------------------------------------------

json::Json SpanToJson(const SpanRecord& span);
StatusOr<SpanRecord> SpanFromJson(const json::Json& value);
json::Json SpansToJson(const std::vector<SpanRecord>& spans);

// Chrome trace_event JSON (chrome://tracing, Perfetto): one complete ("X")
// event per span, ts/dur in microseconds, pid 1, agent spans on tid 2 and
// everything else on tid 1, ids and attributes under "args".
std::string RenderChromeTrace(const std::vector<SpanRecord>& spans);

// Indented duration tree for terminals (chronosctl trace). Spans whose
// parent is not in the set render as roots — shipping is eventually
// consistent, so orphans must degrade gracefully rather than vanish.
std::string RenderSpanTree(const std::vector<SpanRecord>& spans);

}  // namespace chronos::obs

#endif  // CHRONOS_OBS_SPAN_H_
