// Property and regression tests for the slab-pooled scheduler: randomized
// schedule/cancel interleavings checked against a reference model, FIFO
// ordering at equal timestamps, cancel-from-inside-a-running-action safety
// (including the schedule_every self-cancel regression), stale-id
// generation guards, run_until_condition overshoot bounds, and the
// allocation-free steady state the perf harness relies on.  Runs under the
// ASan/UBSan and TSan CI legs, where a double release or use-after-free in
// the slot recycler would trip immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace acf::sim {
namespace {

TEST(SchedulerProperty, EqualTimesFireInInsertionOrderUnderRandomLoad) {
  // Random batches drawn from a tiny time pool force heavy timestamp
  // collisions; execution order must equal a stable sort of insertion order
  // by time (the FIFO seq tie-break every golden trace depends on).
  util::Rng rng(0xF1F0);
  for (int round = 0; round < 60; ++round) {
    Scheduler scheduler;
    std::vector<std::pair<SimTime, int>> model;
    std::vector<int> fired;
    const int count = static_cast<int>(rng.next_in(1, 80));
    for (int i = 0; i < count; ++i) {
      const SimTime when{static_cast<std::int64_t>(rng.next_below(6)) * 1000};
      model.emplace_back(when, i);
      scheduler.schedule_at(when, [i, &fired] { fired.push_back(i); });
    }
    std::stable_sort(model.begin(), model.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    while (scheduler.step()) {
    }
    ASSERT_EQ(fired.size(), model.size()) << "round " << round;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      EXPECT_EQ(fired[i], model[i].second) << "round " << round << " pos " << i;
    }
  }
}

TEST(SchedulerProperty, RandomScheduleCancelInterleavingsMatchModel) {
  // Drive the scheduler with a random mix of schedule / cancel / step /
  // run_for and check it against the trivially-correct model: a one-shot
  // fires exactly once unless cancelled while still pending, in which case
  // it never fires.  Cancelling an already-fired id must be a no-op (the
  // generation guard — the slot may already host an unrelated event).
  struct Tracked {
    EventId id;
    int fires = 0;
    bool cancelled_while_pending = false;
  };
  util::Rng rng(0xCA9CE1);
  for (int round = 0; round < 20; ++round) {
    Scheduler scheduler;
    std::vector<Tracked> tracked;
    tracked.reserve(512);
    for (int op = 0; op < 400; ++op) {
      switch (rng.next_below(4)) {
        case 0: {  // schedule a one-shot
          const std::size_t index = tracked.size();
          tracked.push_back({});
          const Duration delay{static_cast<std::int64_t>(rng.next_below(2000)) * 1000};
          tracked[index].id = scheduler.schedule_after(
              delay, [&tracked, index] { ++tracked[index].fires; });
          break;
        }
        case 1: {  // cancel a random tracked event (live or stale id)
          if (tracked.empty()) break;
          Tracked& victim = tracked[static_cast<std::size_t>(rng.next_below(tracked.size()))];
          const bool was_pending = victim.fires == 0 && !victim.cancelled_while_pending;
          scheduler.cancel(victim.id);
          if (was_pending) victim.cancelled_while_pending = true;
          break;
        }
        case 2:
          scheduler.step();
          break;
        default:
          scheduler.run_for(Duration{static_cast<std::int64_t>(rng.next_below(500)) * 1000});
          break;
      }
      // The live count must always equal the model's pending population.
      std::size_t expected_pending = 0;
      for (const Tracked& t : tracked) {
        if (t.fires == 0 && !t.cancelled_while_pending) ++expected_pending;
      }
      ASSERT_EQ(scheduler.pending_events(), expected_pending)
          << "round " << round << " op " << op;
    }
    while (scheduler.step()) {
    }
    std::uint64_t fired_total = 0;
    for (const Tracked& t : tracked) {
      EXPECT_EQ(t.fires, t.cancelled_while_pending ? 0 : 1) << "round " << round;
      fired_total += static_cast<std::uint64_t>(t.fires);
    }
    EXPECT_EQ(scheduler.executed_events(), fired_total) << "round " << round;
    EXPECT_EQ(scheduler.pending_events(), 0u) << "round " << round;
  }
}

TEST(SchedulerProperty, OneShotCancellingItselfFromItsOwnHandlerIsSafe) {
  // Regression: a handler holding its own id may cancel it mid-dispatch.
  // The event is already off the queue, so this must be a no-op — not a
  // double release that corrupts the free list or the live count.
  Scheduler scheduler;
  EventId self{};
  int fires = 0;
  self = scheduler.schedule_after(Duration{1000}, [&] {
    ++fires;
    scheduler.cancel(self);
  });
  scheduler.run_for(Duration{10'000});
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(scheduler.pending_events(), 0u);
  // The slot recycles cleanly: a fresh event still schedules and fires.
  int later = 0;
  scheduler.schedule_after(Duration{1000}, [&later] { ++later; });
  scheduler.run_for(Duration{10'000});
  EXPECT_EQ(later, 1);
}

TEST(SchedulerProperty, PeriodicCancellingItselfMidDispatchNeverRearms) {
  // Regression pinning schedule_every's cancel-during-own-dispatch
  // semantics: the re-arm is reserved before the handler runs, so the
  // handler cancelling its own id must retract that re-arm — the event
  // fires this period and then never again.
  Scheduler scheduler;
  EventId periodic{};
  int fires = 0;
  periodic = scheduler.schedule_every(Duration{1000}, [&] {
    ++fires;
    if (fires == 3) scheduler.cancel(periodic);
  });
  scheduler.run_for(Duration{50'000});
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(scheduler.pending_events(), 0u);
  EXPECT_FALSE(scheduler.step());
}

TEST(SchedulerProperty, PeriodicCancelSelfThenRescheduleInSameDispatch) {
  // A handler may replace itself: cancel the periodic, then schedule a new
  // one at a different period, all inside one dispatch.  The retired slot
  // must not bleed state into its replacement.
  Scheduler scheduler;
  EventId current{};
  int fast_fires = 0;
  int slow_fires = 0;
  current = scheduler.schedule_every(Duration{1000}, [&] {
    ++fast_fires;
    if (fast_fires == 2) {
      scheduler.cancel(current);
      current = scheduler.schedule_every(Duration{5000}, [&] { ++slow_fires; });
    }
  });
  scheduler.run_for(Duration{22'000});
  EXPECT_EQ(fast_fires, 2);   // 1ms, 2ms — then replaced
  EXPECT_EQ(slow_fires, 4);   // 7ms, 12ms, 17ms, 22ms
  EXPECT_EQ(scheduler.pending_events(), 1u);
  scheduler.cancel(current);
  EXPECT_EQ(scheduler.pending_events(), 0u);
}

TEST(SchedulerProperty, HandlerCancellingAnotherPendingEventIsExact) {
  // Indexed-heap removal from inside a running handler: the victim never
  // fires, every bystander does, and order is preserved.
  Scheduler scheduler;
  std::vector<int> fired;
  EventId victim = scheduler.schedule_at(SimTime{2000}, [&] { fired.push_back(99); });
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule_at(SimTime{3000 + i}, [&fired, i] { fired.push_back(i); });
  }
  scheduler.schedule_at(SimTime{1000}, [&] { scheduler.cancel(victim); });
  scheduler.run_for(Duration{10'000});
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerProperty, StaleIdAfterSlotReuseCannotCancelNewEvent) {
  // Generation guard: an id kept past its event's death refers to a slot
  // that may have been recycled; cancelling it must not kill the tenant.
  Scheduler scheduler;
  int first = 0;
  const EventId stale = scheduler.schedule_after(Duration{1000}, [&first] { ++first; });
  scheduler.run_for(Duration{5000});
  ASSERT_EQ(first, 1);
  int second = 0;
  scheduler.schedule_after(Duration{1000}, [&second] { ++second; });  // reuses the slot
  EXPECT_GE(scheduler.stats().slot_reuses, 1u);
  scheduler.cancel(stale);  // must be a no-op
  EXPECT_EQ(scheduler.pending_events(), 1u);
  scheduler.run_for(Duration{5000});
  EXPECT_EQ(second, 1);
}

TEST(SchedulerProperty, RunUntilConditionNeverOvershoots) {
  // Randomized: whatever the event population and wherever the predicate
  // flips, run_until_condition must never advance the clock past the
  // deadline, never run an event scheduled after it, and report the
  // predicate's state truthfully.
  util::Rng rng(0xDEAD11);
  for (int round = 0; round < 40; ++round) {
    Scheduler scheduler;
    int counter = 0;
    std::vector<SimTime> fire_times;
    const int count = 30;
    for (int i = 0; i < count; ++i) {
      const SimTime when{static_cast<std::int64_t>(rng.next_in(1, 5000)) * 1000};
      scheduler.schedule_at(when, [&counter, &fire_times, when] {
        ++counter;
        fire_times.push_back(when);
      });
    }
    const int threshold = static_cast<int>(rng.next_in(1, 2 * count));  // may be unreachable
    const SimTime deadline{static_cast<std::int64_t>(rng.next_in(1, 5000)) * 1000};
    const bool stopped = scheduler.run_until_condition(
        [&counter, threshold] { return counter >= threshold; }, deadline);
    EXPECT_LE(scheduler.now().count(), deadline.count()) << "round " << round;
    for (const SimTime t : fire_times) {
      EXPECT_LE(t.count(), deadline.count()) << "round " << round;
    }
    if (stopped) {
      EXPECT_GE(counter, threshold) << "round " << round;
    } else {
      EXPECT_EQ(scheduler.now().count(), deadline.count()) << "round " << round;
      EXPECT_LT(counter, threshold) << "round " << round;
    }
  }
}

TEST(SchedulerProperty, SteadyStateIsAllocationFree) {
  // The tentpole claim: once a world is warm, neither the event slab nor
  // the ready queue grows, and recycled slots serve all further traffic.
  Scheduler scheduler{256};
  util::Rng rng(0x51AB);
  for (int i = 0; i < 100; ++i) {
    scheduler.schedule_every(Duration{static_cast<std::int64_t>(rng.next_in(1, 50)) * 1000},
                             [] {});
  }
  scheduler.run_for(std::chrono::milliseconds(200));  // warm up
  const SchedulerStats warm = scheduler.stats();
  const std::uint64_t executed_warm = scheduler.executed_events();
  scheduler.run_for(std::chrono::seconds(2));
  const SchedulerStats after = scheduler.stats();
  EXPECT_GT(scheduler.executed_events(), executed_warm);
  EXPECT_EQ(after.slab_chunks, warm.slab_chunks);
  EXPECT_EQ(after.slab_capacity, warm.slab_capacity);
  EXPECT_EQ(after.heap_capacity, warm.heap_capacity);
}

TEST(SchedulerProperty, ReserveGivesTheCapacityAskedInWholeChunks) {
  // Worlds publish their slab capacity as sim.scheduler.slab_capacity_max, so
  // what a reservation yields is part of the metrics contract.
  EXPECT_EQ(Scheduler{256}.stats().slab_capacity, 256u);
  const SchedulerStats one_chunk = Scheduler{64}.stats();
  EXPECT_EQ(one_chunk.slab_capacity, 64u);
  EXPECT_EQ(one_chunk.slab_chunks, 1u);

  Scheduler scheduler;
  EXPECT_EQ(scheduler.stats().slab_capacity, 0u);
  const SimTime when{1000};
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 65; ++i) {
    ids.push_back(scheduler.schedule_at(when, [i, &fired] { fired.push_back(i); }));
  }
  EXPECT_EQ(scheduler.pending_events(), 65u);
  EXPECT_EQ(scheduler.stats().slab_capacity, 128u);
  EXPECT_EQ(scheduler.stats().slab_chunks, 2u);

  // Free every third slot, then schedule more at the same instant: the first
  // 22 take recycled slots (popped in reverse slot order), the rest take
  // never-used slots up into a third chunk.  Firing order is still the order
  // of scheduling, whatever slot an event landed in.
  std::vector<int> expected;
  for (int i = 0; i < 65; ++i) {
    if (i % 3 == 0) {
      scheduler.cancel(ids[static_cast<std::size_t>(i)]);
    } else {
      expected.push_back(i);
    }
  }
  for (int i = 65; i < 165; ++i) {
    scheduler.schedule_at(when, [i, &fired] { fired.push_back(i); });
    expected.push_back(i);
  }
  EXPECT_EQ(scheduler.stats().slot_reuses, 22u);
  EXPECT_EQ(scheduler.stats().slab_capacity, 192u);
  while (scheduler.step()) {
  }
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace acf::sim
