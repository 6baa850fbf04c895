#include "pacer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace ctlbench {
namespace {

constexpr uint64_t kMs = 1000000;

TEST(PacerTest, SlotsFallDueOnScheduleAndSleepUntilDue) {
  chronos::SimulatedClock clock(1000);
  const uint64_t start = clock.MonotonicNanos();
  Pacer pacer(&clock, 100, start);  // One slot every 10 ms.
  for (uint64_t slot = 0; slot < 5; ++slot) {
    auto due = pacer.NextDue(start + 1000 * kMs);
    ASSERT_TRUE(due.has_value());
    EXPECT_EQ(*due, start + slot * 10 * kMs);
    EXPECT_EQ(clock.MonotonicNanos(), *due);  // Slept exactly to due.
  }
}

TEST(PacerTest, StallMakesLaterRequestsLateInsteadOfSkippingThem) {
  chronos::SimulatedClock clock(0);
  Pacer pacer(&clock, 100, 0);
  ASSERT_EQ(pacer.NextDue(kMs * 1000), 0u);
  clock.AdvanceMs(35);  // The first request took 35 ms.
  // Open loop: the slots due at 10, 20 and 30 ms are still issued, each
  // immediately and each late by the stall.
  for (uint64_t slot = 1; slot <= 3; ++slot) {
    auto due = pacer.NextDue(kMs * 1000);
    ASSERT_TRUE(due.has_value());
    EXPECT_EQ(*due, slot * 10 * kMs);
    EXPECT_EQ(Pacer::Lateness(*due, clock.MonotonicNanos()),
              (35 - slot * 10) * kMs);
  }
  auto on_time = pacer.NextDue(kMs * 1000);
  ASSERT_TRUE(on_time.has_value());
  EXPECT_EQ(*on_time, 40 * kMs);
  EXPECT_EQ(Pacer::Lateness(*on_time, clock.MonotonicNanos()), 0u);
}

TEST(PacerTest, StopsAtTheStopTime) {
  chronos::SimulatedClock clock(0);
  Pacer pacer(&clock, 10, 0);  // 100 ms apart.
  int issued = 0;
  while (pacer.NextDue(350 * kMs).has_value()) ++issued;
  EXPECT_EQ(issued, 4);  // 0, 100, 200, 300 ms.
}

TEST(PacerTest, EachSlotGoesToOneThread) {
  chronos::SystemClock* clock = chronos::SystemClock::Get();
  const uint64_t start = clock->MonotonicNanos();
  Pacer pacer(clock, 2000, start);
  std::vector<std::vector<uint64_t>> taken(4);
  std::vector<std::thread> threads;
  for (auto& mine : taken) {
    threads.emplace_back([&pacer, &mine, start] {
      while (auto due = pacer.NextDue(start + 100 * kMs)) {
        mine.push_back(*due);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<uint64_t> all;
  size_t total = 0;
  for (const auto& mine : taken) {
    total += mine.size();
    all.insert(mine.begin(), mine.end());
  }
  EXPECT_EQ(total, all.size());
  EXPECT_EQ(total, 200u);
}

}  // namespace
}  // namespace ctlbench
