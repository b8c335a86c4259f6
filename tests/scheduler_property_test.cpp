// Property and regression tests for the slab-pooled scheduler: randomized
// schedule/cancel interleavings checked against a reference model (with
// same-instant lane traffic and in-place periodic re-arms in the mix), FIFO
// ordering at equal timestamps, cancel-from-inside-a-running-action safety
// (including the schedule_every self-cancel regression), stale-id
// generation guards, run_until_condition overshoot bounds, and the
// allocation-free steady state the perf harness relies on.  Runs under the
// ASan/UBSan and TSan CI legs, where a double release or use-after-free in
// the slot recycler would trip immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
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

/// Naive reference for the scheduler's contract: pending events in an
/// unordered list, the next one found by an O(n) scan for the smallest
/// (when, seq).  It knows nothing of lanes or heaps; it only remembers which
/// events were due when scheduled, so a test can aim at the lane's front.
struct ReferenceScheduler {
  struct Pending {
    int label;
    SimTime when;
    std::uint64_t seq;
    Duration period;
    bool due_when_scheduled;
  };

  SimTime now{0};
  std::uint64_t next_seq = 0;
  std::uint64_t executed = 0;
  std::vector<Pending> pending;
  int running_periodic = -1;  // label of the periodic whose handler runs
  bool running_cancelled = false;

  void schedule(int label, SimTime when, Duration period) {
    const bool due = when <= now;
    pending.push_back({label, due ? now : when, next_seq++, period, due});
  }

  std::vector<Pending>::iterator next() {
    return std::min_element(pending.begin(), pending.end(),
                            [](const Pending& a, const Pending& b) {
                              return a.when != b.when ? a.when < b.when : a.seq < b.seq;
                            });
  }

  bool any_due_by(SimTime deadline) const {
    return std::any_of(pending.begin(), pending.end(),
                       [deadline](const Pending& p) { return p.when <= deadline; });
  }

  void cancel(int label) {
    if (label == running_periodic) {
      running_cancelled = true;
      return;
    }
    std::erase_if(pending, [label](const Pending& p) { return p.label == label; });
  }

  /// Oldest pending event that was due when scheduled (-1 if none).
  int lane_front() const {
    const Pending* front = nullptr;
    for (const Pending& p : pending) {
      if (p.due_when_scheduled && (front == nullptr || p.seq < front->seq)) front = &p;
    }
    return front == nullptr ? -1 : front->label;
  }

  /// A periodic event counts as pending while its own handler runs.
  std::size_t live() const { return pending.size() + (running_periodic >= 0 ? 1 : 0); }
};

/// Drives a Scheduler and the reference in lockstep.  Every action, from the
/// test body or from inside a handler, is applied to both; every firing is
/// checked against the reference's next (label, time), and the pending and
/// executed counts are compared after every action.
class LockstepHarness {
 public:
  LockstepHarness(Scheduler& scheduler, util::Rng& rng) : scheduler_(scheduler), rng_(rng) {}

  bool broken() const { return !failure_.empty(); }
  const std::string& failure() const { return failure_; }

  void top_level_op() {
    switch (rng_.next_below(8)) {
      case 0:
      case 1:
        schedule_random();
        break;
      case 2:
        cancel(pick_label());
        break;
      case 3:
        cancel(model_.lane_front());
        break;
      case 4:
        step();
        break;
      case 5:
      case 6:
        run_until(model_.now + pick_offset());
        break;
      default: {
        const int events = static_cast<int>(rng_.next_below(7));
        run_until_condition(events, model_.now + pick_offset());
        break;
      }
    }
    check_counts("after a top-level op");
  }

  /// Cancels every periodic event, then steps until nothing is pending.
  void drain() {
    draining_ = true;
    for (std::size_t label = 0; label < periodic_.size(); ++label) {
      if (periodic_[label]) cancel(static_cast<int>(label));
    }
    while (!broken() && step()) {
    }
    if (!broken() && !model_.pending.empty()) fail("the reference still holds pending events");
    check_counts("after draining");
  }

 private:
  static constexpr std::size_t kMaxLabels = 400;

  Duration pick_delay() {
    return Duration{static_cast<std::int64_t>(rng_.next_in(1, 3)) * 1000};
  }
  Duration pick_offset() {  // run deadlines, the past and the present included
    const auto whole = static_cast<std::int64_t>(rng_.next_below(6)) - 1;
    const std::int64_t half = rng_.next_bool(0.2) ? 500 : 0;
    return Duration{whole * 1000 + half};
  }
  int pick_label() {
    if (ids_.empty()) return -1;
    return static_cast<int>(rng_.next_below(ids_.size()));
  }

  void schedule_random() {
    if (draining_ || ids_.size() >= kMaxLabels) return;
    const int label = static_cast<int>(ids_.size());
    const auto handler = [this, label] { on_fire(label); };
    const SimTime now = scheduler_.now();
    SimTime when = now;
    Duration period{0};
    EventId id;
    switch (rng_.next_below(8)) {
      case 0:
        id = scheduler_.schedule_at(now, handler);
        break;
      case 1:
        id = scheduler_.schedule_after(Duration{0}, handler);
        break;
      case 2:  // a past time clamps to now
        when = now - pick_delay();
        id = scheduler_.schedule_at(when, handler);
        break;
      case 3:  // a negative delay counts as zero
        id = scheduler_.schedule_after(-pick_delay(), handler);
        break;
      case 4:
        when = now + pick_delay();
        id = scheduler_.schedule_at(when, handler);
        break;
      case 5: {
        const Duration delay = pick_delay();
        when = now + delay;
        id = scheduler_.schedule_after(delay, handler);
        break;
      }
      case 6:
        period = pick_delay();
        when = now + period;
        id = scheduler_.schedule_every(period, handler);
        break;
      default:  // an absolute instant from a small pool: past, present or future
        when = SimTime{static_cast<std::int64_t>(rng_.next_below(12)) * 1000};
        id = scheduler_.schedule_at(when, handler);
        break;
    }
    ids_.push_back(id);
    periodic_.push_back(period > Duration{0});
    model_.schedule(label, when, period);
  }

  void cancel(int label) {
    if (label < 0) return;
    scheduler_.cancel(ids_[static_cast<std::size_t>(label)]);
    model_.cancel(label);
  }

  bool step() {
    const bool expected = !model_.pending.empty();
    const std::uint64_t before = model_.executed;
    const bool ran = scheduler_.step();
    if (broken()) return false;
    if (ran != expected || model_.executed != before + (expected ? 1 : 0)) {
      fail("step() ran " + std::to_string(ran) + ", the reference expected " +
           std::to_string(expected));
    }
    return ran;
  }

  void run_until(SimTime deadline) {
    scheduler_.run_until(deadline);
    if (broken()) return;
    if (model_.any_due_by(deadline)) fail("run_until left an event due by its deadline");
    model_.now = std::max(model_.now, deadline);
    if (scheduler_.now() != model_.now) fail("run_until ended at the wrong time");
  }

  void run_until_condition(int events, SimTime deadline) {
    const std::uint64_t target = model_.executed + static_cast<std::uint64_t>(events);
    const bool stopped = scheduler_.run_until_condition(
        [this, target] { return model_.executed >= target; }, deadline);
    if (broken()) return;
    if (stopped) {
      if (model_.executed != target) fail("run_until_condition overshot its predicate");
      return;
    }
    if (model_.executed >= target) fail("run_until_condition missed its predicate");
    if (model_.any_due_by(deadline)) fail("run_until_condition left an event due");
    model_.now = std::max(model_.now, deadline);
    if (scheduler_.now() != model_.now) fail("run_until_condition ended at the wrong time");
  }

  void on_fire(int label) {
    if (broken()) return;
    const auto next = model_.next();
    if (next == model_.pending.end() || next->label != label ||
        next->when != scheduler_.now()) {
      std::ostringstream out;
      out << "event " << label << " fired at " << scheduler_.now().count() << " ns; expected ";
      if (next == model_.pending.end()) {
        out << "nothing";
      } else {
        out << "event " << next->label << " at " << next->when.count() << " ns";
      }
      fail(out.str());
      return;
    }
    const ReferenceScheduler::Pending fired = *next;
    model_.pending.erase(next);
    model_.now = fired.when;
    ++model_.executed;
    const bool periodic = fired.period > Duration{0};
    std::uint64_t rearm_seq = 0;
    if (periodic) {
      rearm_seq = model_.next_seq++;
      model_.running_periodic = label;
      model_.running_cancelled = false;
    }
    check_counts("on entry to a handler");
    for (auto actions = rng_.next_below(4); actions > 0 && !broken(); --actions) {
      switch (rng_.next_below(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          schedule_random();
          break;
        case 4:
          cancel(pick_label());
          break;
        case 5:
          cancel(label);  // itself: a no-op for a one-shot, no re-arm for a periodic
          break;
        case 6:
          cancel(model_.lane_front());
          break;
        default: {
          const auto soonest = model_.next();
          if (soonest != model_.pending.end()) cancel(soonest->label);
          break;
        }
      }
      check_counts("inside a handler");
    }
    if (periodic) {
      if (!model_.running_cancelled) {
        model_.pending.push_back({label, fired.when + fired.period, rearm_seq, fired.period,
                                  false});
      }
      model_.running_periodic = -1;
    }
  }

  void check_counts(const char* where) {
    if (broken()) return;
    if (scheduler_.pending_events() != model_.live()) {
      fail(std::string("pending_events() ") + std::to_string(scheduler_.pending_events()) +
           ", reference " + std::to_string(model_.live()) + " " + where);
    } else if (scheduler_.executed_events() != model_.executed) {
      fail(std::string("executed_events() ") + std::to_string(scheduler_.executed_events()) +
           ", reference " + std::to_string(model_.executed) + " " + where);
    }
  }

  void fail(std::string message) {
    if (failure_.empty()) failure_ = std::move(message);
  }

  Scheduler& scheduler_;
  util::Rng& rng_;
  ReferenceScheduler model_;
  std::vector<EventId> ids_;  // by label
  std::vector<bool> periodic_;
  bool draining_ = false;
  std::string failure_;
};

TEST(SchedulerProperty, MatchesReferenceModelWithSameInstantEvents) {
  // Handlers schedule at now (schedule_at(now), schedule_after(0), past
  // times and negative delays), at future instants from a tiny pool so
  // times collide, and periodic events; they cancel other events, the
  // lane's front, the soonest event and themselves.  Runs stop mid-instant
  // (step, run_until_condition), so heap entries due now meet lane entries.
  util::Rng rng(0x1A4E5);
  for (int round = 0; round < 100; ++round) {
    Scheduler scheduler;
    LockstepHarness harness(scheduler, rng);
    for (int op = 0; op < 300 && !harness.broken(); ++op) harness.top_level_op();
    if (!harness.broken()) harness.drain();
    ASSERT_FALSE(harness.broken()) << "round " << round << ": " << harness.failure();
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
