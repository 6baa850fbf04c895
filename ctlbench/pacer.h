#ifndef CTLBENCH_PACER_H_
#define CTLBENCH_PACER_H_

// Open-loop pacing: requests fall due on a fixed schedule whether or not
// earlier ones have completed, so a stall in the server shows up as latency
// on every request that fell due during it.

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/clock.h"

namespace ctlbench {

class Pacer {
 public:
  // Slot i falls due at start_nanos + i / rate_per_second, on `clock`.
  Pacer(chronos::Clock* clock, double rate_per_second, uint64_t start_nanos);

  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  // Claims the next slot and sleeps until it is due. Safe from several
  // threads: each slot goes to exactly one caller. Returns the due time, or
  // nullopt once the slot would fall due at or after `stop_nanos`.
  std::optional<uint64_t> NextDue(uint64_t stop_nanos);

  // How late the generator was for a request due at `due_nanos` that was
  // sent at `sent_nanos` (0 when on time).
  static uint64_t Lateness(uint64_t due_nanos, uint64_t sent_nanos) {
    return sent_nanos > due_nanos ? sent_nanos - due_nanos : 0;
  }

 private:
  uint64_t DueTime(uint64_t slot) const;
  void SleepUntil(uint64_t due_nanos);

  chronos::Clock* clock_;
  double interval_nanos_;
  uint64_t start_nanos_;
  std::atomic<uint64_t> next_slot_{0};
};

}  // namespace ctlbench

#endif  // CTLBENCH_PACER_H_
