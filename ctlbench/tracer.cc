#include "tracer.h"

#include <cstdio>

#include "obs/span.h"

namespace ctlbench {

namespace {

std::string Hex(uint64_t value, int width) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%0*llx", width,
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  chronos::MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::Record(uint64_t trace, uint64_t id, uint64_t parent,
                    std::string name, uint64_t start_nanos,
                    uint64_t end_nanos, std::string key) {
  if (!enabled_) return;
  chronos::MutexLock lock(mu_);
  spans_.push_back(SpanRow{trace, id, parent, std::move(name), start_nanos,
                           end_nanos, std::move(key)});
}

std::map<std::string, SpanTotals> Tracer::TotalsByName(
    uint64_t from_nanos, uint64_t to_nanos) const {
  std::map<std::string, SpanTotals> totals;
  chronos::MutexLock lock(mu_);
  for (const SpanRow& span : spans_) {
    if (span.start_nanos < from_nanos || span.start_nanos >= to_nanos) continue;
    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.nanos += span.end_nanos - span.start_nanos;
  }
  return totals;
}

std::string Tracer::RenderChrome() const {
  std::vector<chronos::obs::SpanRecord> records;
  {
    chronos::MutexLock lock(mu_);
    records.reserve(spans_.size());
    for (const SpanRow& span : spans_) {
      chronos::obs::SpanRecord record;
      record.trace_id = Hex(span.trace, 32);
      record.span_id = Hex(span.id, 16);
      record.parent_span_id = span.parent == 0 ? "" : Hex(span.parent, 16);
      record.name = span.name;
      record.start_nanos = span.start_nanos;
      record.end_nanos = span.end_nanos;
      if (!span.key.empty()) record.attributes.emplace_back("key", span.key);
      records.push_back(std::move(record));
    }
  }
  return chronos::obs::RenderChromeTrace(records);
}

}  // namespace ctlbench
