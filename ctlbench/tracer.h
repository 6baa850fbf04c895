#ifndef CTLBENCH_TRACER_H_
#define CTLBENCH_TRACER_H_

// The benchmark's own spans. They live in a list this file owns, not in
// obs::SpanCollector: in-process agents ship that process-wide collector to
// Control, so spans recorded there would change the traffic under test.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ctlbench {

struct SpanTotals {
  uint64_t count = 0;
  uint64_t nanos = 0;
};

class Tracer {
 public:
  // A disabled tracer records nothing and hands out id 0.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Fresh id for a trace (one job, one read) or a span; 0 when disabled.
  uint64_t NewId();

  // Records a finished span. `trace` groups the spans of one job or read;
  // `parent` is 0 for a root. `id` comes from NewId() so children can name
  // it before it ends.
  void Record(uint64_t trace, uint64_t id, uint64_t parent, std::string name,
              uint64_t start_nanos, uint64_t end_nanos, std::string key = "");

  // Count and summed duration, per name, of the spans that started in
  // [from_nanos, to_nanos).
  std::map<std::string, SpanTotals> TotalsByName(uint64_t from_nanos,
                                                 uint64_t to_nanos) const;

  // Every recorded span as Chrome trace_event JSON (obs::RenderChromeTrace).
  std::string RenderChrome() const;

 private:
  struct SpanRow {
    uint64_t trace;
    uint64_t id;
    uint64_t parent;
    std::string name;
    uint64_t start_nanos;
    uint64_t end_nanos;
    std::string key;
  };

  const bool enabled_;
  mutable chronos::Mutex mu_;
  uint64_t next_id_ CHRONOS_GUARDED_BY(mu_) = 1;
  std::vector<SpanRow> spans_ CHRONOS_GUARDED_BY(mu_);
};

}  // namespace ctlbench

#endif  // CTLBENCH_TRACER_H_
