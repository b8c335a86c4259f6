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

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t slot = free_head_;
    free_head_ = event(slot).next_free;
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
  ev.heap_index = kNullIndex;
  ev.next_free = free_head_;
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
  heap_.push_back(HeapEntry{when, seq, slot});
  event(slot).heap_index = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void Scheduler::heap_remove(std::size_t pos) {
  event(heap_[pos].slot).heap_index = kNullIndex;
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

void Scheduler::heap_pop_root() { heap_remove(0); }

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value & 0xFFFFFFFFULL) - 1);
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_used_) return;
  Event& ev = event(slot);
  if (ev.generation != generation) return;  // stale id: the event already died
  if (ev.state == SlotState::kQueued) {
    heap_remove(ev.heap_index);
    release_slot(slot);
    --live_;
  } else if (ev.state == SlotState::kRunning) {
    // Cancelled from inside its own handler: defer the release until the
    // handler returns (destroying an executing closure would be UB).  For a
    // periodic event this also suppresses the re-arm.
    ev.cancel_requested = true;
  }
}

void Scheduler::dispatch_top() {
  const std::uint32_t slot = heap_[0].slot;
  Event& ev = event(slot);  // slab slots are stable; safe across handler calls
  now_ = ev.when;
  heap_pop_root();
  ev.state = SlotState::kRunning;
  ++executed_;
  if (ev.period > Duration{0}) {
    // Reserve the re-arm sequence number before running the handler, exactly
    // where the previous implementation pushed its re-arm entry: anything the
    // handler schedules at when+period must fire AFTER the next tick.
    const std::uint64_t rearm_seq = next_seq_++;
    ev.action();
    if (ev.cancel_requested) {
      release_slot(slot);
      --live_;
    } else {
      ev.when += ev.period;
      ev.seq = rearm_seq;
      ev.state = SlotState::kQueued;
      heap_push(slot, ev.when, ev.seq);
    }
  } else {
    --live_;  // a one-shot stops being "pending" the moment it starts running
    ev.action();
    release_slot(slot);
  }
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  dispatch_top();
  return true;
}

void Scheduler::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) dispatch_top();
  if (now_ < deadline) now_ = deadline;
}

bool Scheduler::run_until_condition(const std::function<bool()>& stop, SimTime deadline) {
  if (stop()) return true;
  while (!heap_.empty() && heap_[0].when <= deadline) {
    dispatch_top();
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
