#include "pacer.h"

#include <chrono>
#include <thread>

namespace ctlbench {

namespace {
constexpr uint64_t kNanosPerMs = 1000000;
}  // namespace

Pacer::Pacer(chronos::Clock* clock, double rate_per_second,
             uint64_t start_nanos)
    : clock_(clock),
      interval_nanos_(1e9 / rate_per_second),
      start_nanos_(start_nanos) {}

uint64_t Pacer::DueTime(uint64_t slot) const {
  return start_nanos_ +
         static_cast<uint64_t>(static_cast<double>(slot) * interval_nanos_);
}

std::optional<uint64_t> Pacer::NextDue(uint64_t stop_nanos) {
  uint64_t due = DueTime(next_slot_.fetch_add(1));
  if (due >= stop_nanos) return std::nullopt;
  SleepUntil(due);
  return due;
}

void Pacer::SleepUntil(uint64_t due_nanos) {
  uint64_t now = clock_->MonotonicNanos();
  if (now >= due_nanos) return;
  // Whole milliseconds on the injected clock (a simulated clock advances
  // here), then the sub-millisecond rest on the steady clock, which the
  // system clock reads too.
  uint64_t gap = due_nanos - now;
  if (gap >= kNanosPerMs) {
    clock_->SleepMs(static_cast<int64_t>(gap / kNanosPerMs));
  }
  now = clock_->MonotonicNanos();
  if (now < due_nanos) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_nanos - now));
  }
}

}  // namespace ctlbench
