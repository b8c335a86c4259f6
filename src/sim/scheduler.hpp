// Discrete-event scheduler: the heartbeat of the virtual bus, all ECU models
// and the fuzzer.  Strictly deterministic: events at equal times fire in
// scheduling order (FIFO tie-break), so a campaign seed reproduces a run
// bit-for-bit.
//
// Built for throughput: events live in a slab of stable 128-byte slots
// recycled through a free list, callables are stored inline (PooledAction
// small-buffer optimisation), and pending events wait in one of two places.
// An event due at the current instant when it is scheduled (a zero-delay
// bus contest, once per frame) joins a FIFO lane threaded through the slots;
// every later event goes into a 4-ary indexed heap keyed by (when, seq).
// Every heap entry due now was scheduled before the clock reached now, so it
// precedes every lane entry: dispatch runs the heap's due entries, then the
// lane, and only then advances the clock, which is exactly (when, seq)
// order.  Each slot knows its heap position or lane neighbours, so cancel()
// is a true removal with no tombstones to skip.  A periodic event stays at
// the heap root while its handler runs and then re-keys in place with one
// sift-down (no callable copy, no pop and push).  Steady-state operation of
// a warmed-up world performs zero heap allocations, and reset() keeps the
// slab and heap, so a world reset in place re-runs without allocating.
//
// Handlers may schedule and cancel events, but must not run the scheduler
// (step/run_*) themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/pooled_action.hpp"
#include "sim/time.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::sim {

/// Token identifying a scheduled event; used for cancellation.  Encodes the
/// slab slot plus a generation counter, so an id kept past its event's death
/// can never cancel an unrelated later event recycled into the same slot.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const noexcept { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// Allocation telemetry, used by tests and the perf harness to prove the
/// steady state is allocation-free (slab/heap capacities stop growing).
struct SchedulerStats {
  std::size_t slab_chunks = 0;    // 64-event chunks allocated
  std::size_t slab_capacity = 0;  // total event slots
  std::size_t heap_capacity = 0;  // ready-queue capacity
  std::uint64_t slot_reuses = 0;  // events served from the free list
  std::uint64_t action_heap_spills = 0;  // callables too big for the inline buffer
};

class Scheduler {
 public:
  Scheduler() = default;
  /// Pre-sizes the event slab and ready queue (fleet trial setup passes the
  /// expected steady-state event count so per-trial worlds never grow).
  explicit Scheduler(std::size_t reserve_events) { reserve(reserve_events); }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Ensures capacity for `events` concurrently pending events.
  void reserve(std::size_t events);

  /// Returns to the just-built state: every pending event is dropped, and
  /// the clock, FIFO sequence and counters restart from zero, so the same
  /// schedule replays exactly as on a new scheduler.  Keeps the slab chunks
  /// and the heap's capacity.  Each dropped event's slot moves to a new
  /// generation, so an EventId from before the reset cancels nothing.
  /// Must not be called from inside an event handler.
  void reset();

  SimTime now() const noexcept { return now_; }

  /// One-shot event at absolute simulated time `when` (clamped to >= now).
  template <typename F>
  EventId schedule_at(SimTime when, F&& action) {
    return arm(when, Duration{0}, std::forward<F>(action));
  }

  /// One-shot event `delay` after now (a negative delay counts as zero).
  template <typename F>
  EventId schedule_after(Duration delay, F&& action) {
    return arm(now_ + delay, Duration{0}, std::forward<F>(action));
  }

  /// Repeating event, first firing at now + period, then every `period`.
  /// Requires period > 0 (a zero period would never advance the clock).
  template <typename F>
  EventId schedule_every(Duration period, F&& action) {
    if (period <= Duration{0}) period = Duration{1};
    return arm(now_ + period, period, std::forward<F>(action));
  }

  /// Cancels a pending (or repeating) event.  Safe to call from inside an
  /// event handler, including the event's own handler.  O(log n).
  void cancel(EventId id);

  /// Executes the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs all events up to and including time `deadline`; the clock ends at
  /// `deadline` even if the queue drains early.
  void run_until(SimTime deadline);

  /// Runs for `d` of simulated time from now.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Runs until `stop()` returns true (checked after every event) or the
  /// deadline passes.  Returns true if the predicate fired.
  bool run_until_condition(const std::function<bool()>& stop, SimTime deadline);

  std::size_t pending_events() const noexcept { return live_; }
  std::uint64_t executed_events() const noexcept { return executed_; }
  SchedulerStats stats() const noexcept;

  /// Adds this scheduler's lifetime totals into `sim.scheduler.*` registry
  /// counters (capacities advance monotonically via bump_to, so the
  /// aggregate is a max across worlds and stays order-independent).
  /// Worlds call this once at trial end.
  void publish_metrics(metrics::Registry& registry) const;

 private:
  static constexpr std::uint32_t kNullIndex = ~std::uint32_t{0};
  static constexpr std::size_t kChunkShift = 6;  // 64 events per slab chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  enum class SlotState : std::uint8_t { kFree, kHeap, kLane, kRunning };

  struct Event {
    SimTime when{0};
    std::uint64_t seq = 0;  // FIFO tie-break for equal times
    Duration period{0};     // zero => one-shot
    std::uint32_t generation = 1;
    std::uint32_t heap_index = kNullIndex;  // position while in the heap
    std::uint32_t next = kNullIndex;        // free list or lane successor
    std::uint32_t prev = kNullIndex;        // lane predecessor
    SlotState state = SlotState::kFree;
    bool cancel_requested = false;
    PooledAction action;
  };
  // The lane links sit in the padding before the callable's aligned buffer.
  static_assert(sizeof(Event) == 128, "an event slot must stay 128 bytes");

  /// Heap entries carry the ordering key so sifting never chases into the
  /// slab; the slot's heap_index back-pointer makes removal indexed.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) | (slot + 1ULL);
  }

  Event& event(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  void add_chunk();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(std::uint32_t slot, SimTime when, std::uint64_t seq);
  void heap_pop_root();
  void heap_remove(std::size_t pos);
  std::size_t sift_up(std::size_t pos);
  std::size_t sift_down(std::size_t pos);
  void lane_push(std::uint32_t slot);
  void lane_unlink(std::uint32_t slot);
  /// Runs the next event due by `deadline`; false when there is none.
  bool dispatch_next(SimTime deadline);
  void run_periodic(std::uint32_t slot);

  /// Queues a new event; a time at or before now joins the same-instant lane.
  template <typename F>
  EventId arm(SimTime when, Duration period, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Event& ev = event(slot);
    ev.when = when;
    ev.seq = next_seq_++;
    ev.period = period;
    ev.cancel_requested = false;
    ev.action.emplace(std::forward<F>(action));
    if (ev.action.on_heap()) ++action_heap_spills_;
    if (when <= now_) {
      lane_push(slot);
    } else {
      heap_push(slot, when, ev.seq);
    }
    ++live_;
    return EventId{make_id(slot, ev.generation)};
  }

  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNullIndex;
  std::uint32_t lane_head_ = kNullIndex;  // same-instant FIFO, oldest first
  std::uint32_t lane_tail_ = kNullIndex;
  std::size_t slots_used_ = 0;  // high-water slot count (never shrinks)
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t slot_reuses_ = 0;
  std::uint64_t action_heap_spills_ = 0;
};

}  // namespace acf::sim
