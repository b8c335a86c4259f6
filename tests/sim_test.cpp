#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"

namespace acf::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.now(), SimTime{0});
  EXPECT_FALSE(scheduler.step());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  scheduler.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  scheduler.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  scheduler.run_until(SimTime{1000});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), SimTime{1000});
}

TEST(Scheduler, EqualTimesFireFifo) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  scheduler.run_until(SimTime{50});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ClockMatchesEventTime) {
  Scheduler scheduler;
  SimTime seen{};
  scheduler.schedule_after(Duration{250}, [&] { seen = scheduler.now(); });
  scheduler.run_until(SimTime{1000});
  EXPECT_EQ(seen, SimTime{250});
}

TEST(Scheduler, PastDeadlinesClampToNow) {
  Scheduler scheduler;
  scheduler.schedule_at(SimTime{100}, [] {});
  scheduler.run_until(SimTime{100});
  bool fired = false;
  scheduler.schedule_at(SimTime{50}, [&] { fired = true; });  // in the past
  scheduler.run_until(SimTime{100});
  EXPECT_TRUE(fired);
  EXPECT_EQ(scheduler.now(), SimTime{100});
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler scheduler;
  bool fired = false;
  const EventId id = scheduler.schedule_at(SimTime{10}, [&] { fired = true; });
  scheduler.cancel(id);
  scheduler.run_until(SimTime{100});
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler scheduler;
  scheduler.cancel(EventId{});
  scheduler.cancel(EventId{9999});
  EXPECT_FALSE(scheduler.step());
}

TEST(Scheduler, RepeatingEventFiresEveryPeriod) {
  Scheduler scheduler;
  int count = 0;
  scheduler.schedule_every(Duration{100}, [&] { ++count; });
  scheduler.run_until(SimTime{1000});
  EXPECT_EQ(count, 10);  // t=100..1000
}

TEST(Scheduler, RepeatingEventCancelledFromHandler) {
  Scheduler scheduler;
  int count = 0;
  EventId id{};
  id = scheduler.schedule_every(Duration{10}, [&] {
    if (++count == 3) scheduler.cancel(id);
  });
  scheduler.run_until(SimTime{1000});
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, ZeroPeriodClampedToOne) {
  Scheduler scheduler;
  int count = 0;
  const EventId id = scheduler.schedule_every(Duration{0}, [&] { ++count; });
  scheduler.run_until(SimTime{5});
  scheduler.cancel(id);
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, EventsScheduledDuringEventsRun) {
  Scheduler scheduler;
  bool inner = false;
  scheduler.schedule_at(SimTime{10}, [&] {
    scheduler.schedule_after(Duration{5}, [&] { inner = true; });
  });
  scheduler.run_until(SimTime{20});
  EXPECT_TRUE(inner);
}

TEST(Scheduler, ZeroDelayEventFromHandlerRunsAtSameTime) {
  Scheduler scheduler;
  SimTime inner_time{-1};
  scheduler.schedule_at(SimTime{10}, [&] {
    scheduler.schedule_at(scheduler.now(), [&] { inner_time = scheduler.now(); });
  });
  scheduler.run_until(SimTime{10});
  EXPECT_EQ(inner_time, SimTime{10});
}

TEST(Scheduler, RunUntilConditionStopsEarly) {
  Scheduler scheduler;
  int count = 0;
  scheduler.schedule_every(Duration{10}, [&] { ++count; });
  const bool hit = scheduler.run_until_condition([&] { return count >= 5; }, SimTime{10000});
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(scheduler.now(), SimTime{50});
}

TEST(Scheduler, RunUntilConditionDeadline) {
  Scheduler scheduler;
  const bool hit = scheduler.run_until_condition([] { return false; }, SimTime{500});
  EXPECT_FALSE(hit);
  EXPECT_EQ(scheduler.now(), SimTime{500});
}

TEST(Scheduler, CancelledEventsDoNotMaskTheDeadline) {
  // Regression: a cancelled entry inside the run window must not cause the
  // next live event beyond the deadline to execute.
  Scheduler scheduler;
  bool late_fired = false;
  const EventId cancelled = scheduler.schedule_at(SimTime{50}, [] {});
  scheduler.schedule_at(SimTime{200}, [&] { late_fired = true; });
  scheduler.cancel(cancelled);
  scheduler.run_until(SimTime{100});
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(scheduler.now(), SimTime{100});
  scheduler.run_until(SimTime{300});
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, CancelledRepeatingEventStopsMaskingToo) {
  Scheduler scheduler;
  int count = 0;
  const EventId id = scheduler.schedule_every(Duration{10}, [&] { ++count; });
  scheduler.run_until(SimTime{35});
  EXPECT_EQ(count, 3);
  scheduler.cancel(id);
  bool fired = false;
  scheduler.schedule_at(SimTime{500}, [&] { fired = true; });
  scheduler.run_until(SimTime{100});
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(fired);
}

TEST(Scheduler, ExecutedEventsCounter) {
  Scheduler scheduler;
  for (int i = 0; i < 7; ++i) scheduler.schedule_at(SimTime{i}, [] {});
  scheduler.run_until(SimTime{100});
  EXPECT_EQ(scheduler.executed_events(), 7u);
}

TEST(Scheduler, RunForAdvancesRelative) {
  Scheduler scheduler;
  scheduler.run_for(Duration{100});
  scheduler.run_for(Duration{50});
  EXPECT_EQ(scheduler.now(), SimTime{150});
}

TEST(Scheduler, ResetReplaysAsANewScheduler) {
  const auto run = [](Scheduler& scheduler, std::vector<int>& order) {
    scheduler.schedule_every(Duration{3}, [&order] { order.push_back(0); });
    scheduler.schedule_at(SimTime{3}, [&order] { order.push_back(1); });
    scheduler.schedule_at(SimTime{0}, [&order, &scheduler] {
      order.push_back(2);
      scheduler.schedule_after(Duration{0}, [&order] { order.push_back(3); });
    });
    // Scheduled after event 1 has freed its slot, so it reuses one.
    scheduler.schedule_at(SimTime{5}, [&order, &scheduler] {
      scheduler.schedule_after(Duration{1}, [&order] { order.push_back(4); });
    });
    scheduler.run_until(SimTime{7});
  };
  Scheduler reused;
  // Takes slot 0, which the periodic event takes after the reset.
  const EventId stale = reused.schedule_at(SimTime{100}, [] {});
  std::vector<int> before_reset;
  run(reused, before_reset);
  reused.reset();
  EXPECT_EQ(reused.now(), SimTime{0});
  EXPECT_EQ(reused.pending_events(), 0u);
  EXPECT_EQ(reused.executed_events(), 0u);

  std::vector<int> after_reset;
  run(reused, after_reset);
  reused.cancel(stale);  // an id from before the reset cancels nothing
  Scheduler fresh;
  std::vector<int> on_new;
  run(fresh, on_new);
  EXPECT_EQ(after_reset, on_new);
  EXPECT_EQ(reused.executed_events(), fresh.executed_events());
  EXPECT_EQ(reused.pending_events(), fresh.pending_events());

  EXPECT_EQ(reused.stats().slot_reuses, fresh.stats().slot_reuses);
  EXPECT_GT(fresh.stats().slot_reuses, 0u);

  reused.run_until(SimTime{20});
  fresh.run_until(SimTime{20});
  EXPECT_EQ(after_reset, on_new);  // the stale cancel left the periodic alone
}

TEST(FormatMillis, PaperStyleTimestamps) {
  EXPECT_EQ(format_millis(SimTime{5'328'009'000}), "5328.009");
  EXPECT_EQ(format_millis(SimTime{0}), "0.000");
}

TEST(TimeHelpers, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(std::chrono::milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(std::chrono::microseconds(2500)), 2.5);
}

}  // namespace
}  // namespace acf::sim
