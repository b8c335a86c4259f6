#include "sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>

#include "metrics/metrics.hpp"

namespace acf::sim {

std::string format_millis(SimTime t) {
  const double ms = to_millis(t);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

void Scheduler::add_chunk() {
  // Default-initialised, not value-initialised: each slot's inline callable
  // buffer is written by emplace() before anything reads it, so zeroing the
  // chunk first would be wasted work on every world built.
  chunks_.push_back(std::make_unique_for_overwrite<Event[]>(kChunkSize));
}

void Scheduler::reserve(std::size_t events) {
  while (chunks_.size() * kChunkSize < events) add_chunk();
  if (heap_.capacity() < events) heap_.reserve(events);
}

void Scheduler::reset() {
  for (std::uint32_t slot = 0; slot < slots_used_; ++slot) {
    if (event(slot).state != SlotState::kFree) release_slot(slot);
  }
  // Slots are handed out from zero again, in the order a new scheduler
  // would hand them out; the free list built above is dropped with them.
  free_head_ = kNullIndex;
  lane_head_ = kNullIndex;
  lane_tail_ = kNullIndex;
  slots_used_ = 0;
  heap_.clear();
  now_ = SimTime{0};
  next_seq_ = 0;
  executed_ = 0;
  live_ = 0;
  slot_reuses_ = 0;
  action_heap_spills_ = 0;
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t slot = free_head_;
    free_head_ = event(slot).next;
    ++slot_reuses_;
    return slot;
  }
  if (slots_used_ == chunks_.size() * kChunkSize) add_chunk();
  return static_cast<std::uint32_t>(slots_used_++);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Event& ev = event(slot);
  ev.action.reset();
  ++ev.generation;  // invalidate any EventId still naming this slot
  ev.state = SlotState::kFree;
  ev.cancel_requested = false;
  ev.next = free_head_;
  free_head_ = slot;
}

std::size_t Scheduler::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    event(heap_[pos].slot).heap_index = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  event(entry.slot).heap_index = static_cast<std::uint32_t>(pos);
  return pos;
}

std::size_t Scheduler::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t smallest = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[smallest])) smallest = child;
    }
    if (!before(heap_[smallest], entry)) break;
    heap_[pos] = heap_[smallest];
    event(heap_[pos].slot).heap_index = static_cast<std::uint32_t>(pos);
    pos = smallest;
  }
  heap_[pos] = entry;
  event(entry.slot).heap_index = static_cast<std::uint32_t>(pos);
  return pos;
}

void Scheduler::heap_push(std::uint32_t slot, SimTime when, std::uint64_t seq) {
  event(slot).state = SlotState::kHeap;
  heap_.push_back(HeapEntry{when, seq, slot});
  sift_up(heap_.size() - 1);
}

void Scheduler::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  event(heap_[pos].slot).heap_index = static_cast<std::uint32_t>(pos);
  // The relocated tail entry may belong above or below its new position.
  if (sift_down(pos) == pos) sift_up(pos);
}

void Scheduler::heap_pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  heap_[0] = last;
  sift_down(0);
}

void Scheduler::lane_push(std::uint32_t slot) {
  Event& ev = event(slot);
  ev.state = SlotState::kLane;
  ev.next = kNullIndex;
  ev.prev = lane_tail_;
  (lane_tail_ == kNullIndex ? lane_head_ : event(lane_tail_).next) = slot;
  lane_tail_ = slot;
}

void Scheduler::lane_unlink(std::uint32_t slot) {
  const Event& ev = event(slot);
  (ev.prev == kNullIndex ? lane_head_ : event(ev.prev).next) = ev.next;
  (ev.next == kNullIndex ? lane_tail_ : event(ev.next).prev) = ev.prev;
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value & 0xFFFFFFFFULL) - 1);
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_used_) return;
  Event& ev = event(slot);
  if (ev.generation != generation) return;  // stale id: the event already died
  switch (ev.state) {
    case SlotState::kHeap:
      heap_remove(ev.heap_index);
      break;
    case SlotState::kLane:
      lane_unlink(slot);
      break;
    case SlotState::kRunning:
      // Cancelled from inside its own handler: defer the release until the
      // handler returns (destroying an executing closure would be UB).  For a
      // periodic event this also suppresses the re-arm.
      ev.cancel_requested = true;
      return;
    case SlotState::kFree:
      return;
  }
  release_slot(slot);
  --live_;
}

void Scheduler::run_periodic(std::uint32_t slot) {
  Event& ev = event(slot);  // slab slots are stable; safe across handler calls
  // The event keeps the heap root while its handler runs: whatever the
  // handler schedules sorts after it (due now joins the lane, later lands
  // below the root), and a cancel of another event never lifts an entry
  // past it.  The re-arm seq is reserved first, so anything the handler
  // schedules at when+period fires AFTER the next tick.
  const std::uint64_t rearm_seq = next_seq_++;
  ev.state = SlotState::kRunning;
  ++executed_;
  ev.action();
  if (ev.cancel_requested) {  // cancelled by its own handler: no re-arm
    heap_remove(ev.heap_index);
    release_slot(slot);
    --live_;
    return;
  }
  ev.when += ev.period;
  ev.seq = rearm_seq;
  ev.state = SlotState::kHeap;
  heap_[ev.heap_index] = HeapEntry{ev.when, ev.seq, slot};
  sift_down(ev.heap_index);
}

bool Scheduler::dispatch_next(SimTime deadline) {
  std::uint32_t slot = lane_head_;
  if (slot != kNullIndex && (heap_.empty() || heap_[0].when > now_)) {
    // Heap entries due now precede the lane (they were scheduled before the
    // clock reached now); the lane drains before the clock moves on.
    if (now_ > deadline) return false;
    lane_unlink(slot);
  } else {
    if (heap_.empty() || heap_[0].when > deadline) return false;
    slot = heap_[0].slot;
    now_ = heap_[0].when;
    if (event(slot).period != Duration{0}) {
      run_periodic(slot);
      return true;
    }
    heap_pop_root();
  }
  Event& ev = event(slot);
  ev.state = SlotState::kRunning;
  ++executed_;
  --live_;  // a one-shot stops being "pending" the moment it starts running
  ev.action();
  release_slot(slot);
  return true;
}

bool Scheduler::step() { return dispatch_next(SimTime::max()); }

void Scheduler::run_until(SimTime deadline) {
  while (dispatch_next(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

bool Scheduler::run_until_condition(const std::function<bool()>& stop, SimTime deadline) {
  if (stop()) return true;
  while (dispatch_next(deadline)) {
    if (stop()) return true;
  }
  if (now_ < deadline) now_ = deadline;
  return false;
}

SchedulerStats Scheduler::stats() const noexcept {
  return SchedulerStats{chunks_.size(), chunks_.size() * kChunkSize, heap_.capacity(),
                        slot_reuses_, action_heap_spills_};
}

void Scheduler::publish_metrics(metrics::Registry& registry) const {
  const SchedulerStats s = stats();
  registry.counter("sim.scheduler.events_executed").add(executed_);
  registry.counter("sim.scheduler.slot_reuses").add(s.slot_reuses);
  registry.counter("sim.scheduler.action_heap_spills").add(s.action_heap_spills);
  registry.counter("sim.scheduler.slab_capacity_max").bump_to(s.slab_capacity);
  registry.counter("sim.scheduler.heap_capacity_max").bump_to(s.heap_capacity);
}

}  // namespace acf::sim
