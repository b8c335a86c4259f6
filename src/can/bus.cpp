#include "can/bus.hpp"

#include <limits>

#include "metrics/metrics.hpp"

namespace acf::can {

namespace {
// Error frame: up to 6+6 flag bits, 8 delimiter bits, 3 intermission — plus
// the part of the frame transmitted before the error was detected.  We model
// the pre-error portion as half the frame and the error sequence as 20 bits.
constexpr std::size_t kErrorSequenceBits = 20;
// Bus-off recovery: 128 occurrences of 11 consecutive recessive bits.
constexpr std::size_t kBusOffRecoveryBits = 128 * 11;
const std::string kDetachedName = "<detached>";
}  // namespace

VirtualBus::VirtualBus(sim::Scheduler& scheduler, BusConfig config)
    : scheduler_(scheduler), config_(config), rng_(config.seed) {}

NodeId VirtualBus::attach(BusListener& listener, std::string name, FilterBank filters,
                          bool listen_only) {
  Node node;
  node.listener = &listener;
  node.name = std::move(name);
  node.filters = std::move(filters);
  node.listen_only = listen_only;
  nodes_.push_back(std::move(node));
  fanout_dirty_ = true;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void VirtualBus::detach(NodeId id) {
  if (id >= nodes_.size()) return;
  nodes_[id].listener = nullptr;
  if (!nodes_[id].tx_queue.empty()) note_tx_queue_emptied();
  nodes_[id].tx_queue.clear();
  fanout_dirty_ = true;
}

bool VirtualBus::can_transmit(const Node& node) const noexcept {
  return node.listener != nullptr && node.powered && !node.listen_only &&
         !node.errors.bus_off() && !node.in_bus_off_recovery;
}

bool VirtualBus::submit(NodeId sender, const CanFrame& frame) {
  if (sender >= nodes_.size()) return false;
  Node& node = nodes_[sender];
  ++stats_.frames_submitted;
  if (!can_transmit(node)) {
    if (node.errors.bus_off() || node.in_bus_off_recovery) ++stats_.drops_bus_off;
    return false;
  }
  if (node.tx_queue.size() >= kTxQueueLimit) {
    ++stats_.drops_queue_full;
    return false;
  }
  if (node.tx_queue.empty()) ++tx_pending_nodes_;
  node.tx_queue.push_back(frame);
  request_contest();
  return true;
}

void VirtualBus::flush_tx_queue(NodeId id) {
  if (id >= nodes_.size()) return;
  if (!nodes_[id].tx_queue.empty()) note_tx_queue_emptied();
  nodes_[id].tx_queue.clear();
}

void VirtualBus::set_power(NodeId id, bool on) {
  if (id >= nodes_.size()) return;
  Node& node = nodes_[id];
  if (node.powered == on) return;
  node.powered = on;
  fanout_dirty_ = true;
  if (!on) {
    if (!node.tx_queue.empty()) note_tx_queue_emptied();
    node.tx_queue.clear();
  } else {
    node.errors.reset();  // power cycle clears the controller's counters
    node.in_bus_off_recovery = false;
    request_contest();
  }
}

bool VirtualBus::powered(NodeId id) const {
  return id < nodes_.size() && nodes_[id].powered;
}

const ErrorState& VirtualBus::error_state(NodeId id) const {
  static const ErrorState kEmpty;
  return id < nodes_.size() ? nodes_[id].errors : kEmpty;
}

bool VirtualBus::bus_off_recovering(NodeId id) const {
  return id < nodes_.size() && nodes_[id].in_bus_off_recovery;
}

void VirtualBus::force_tx_errors(NodeId id, std::uint32_t count) {
  if (id < nodes_.size()) nodes_[id].forced_tx_errors += count;
}

std::uint32_t VirtualBus::forced_tx_errors_remaining(NodeId id) const {
  return id < nodes_.size() ? nodes_[id].forced_tx_errors : 0;
}

void VirtualBus::inject_error_frame() {
  ++stats_.error_frames;
  for (auto& node : nodes_) {
    if (node.listener != nullptr && node.powered) node.errors.on_rx_error();
  }
}

std::size_t VirtualBus::pending(NodeId id) const {
  return id < nodes_.size() ? nodes_[id].tx_queue.size() : 0;
}

const std::string& VirtualBus::node_name(NodeId id) const {
  return id < nodes_.size() ? nodes_[id].name : kDetachedName;
}

std::size_t VirtualBus::node_count() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.listener != nullptr) ++n;
  }
  return n;
}

sim::Duration VirtualBus::frame_duration(const CanFrame& frame) const {
  return frame_time(frame);
}

void VirtualBus::refresh_fanout() {
  fanout_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.listener != nullptr && node.powered) fanout_.push_back(id);
  }
  fanout_dirty_ = false;
}

void VirtualBus::reset() {
  for (Node& node : nodes_) {
    node.powered = true;
    node.in_bus_off_recovery = false;
    node.forced_tx_errors = 0;
    node.errors = ErrorState{};
    node.tx_queue.clear();
  }
  tx_pending_nodes_ = 0;
  stats_ = BusStats{};
  busy_ = false;
  contest_pending_ = false;
  rng_ = util::Rng(config_.seed);
  fanout_dirty_ = true;
}

void VirtualBus::request_contest() {
  if (busy_ || contest_pending_) return;
  if (tx_pending_nodes_ == 0) return;  // a contest could only no-op
  contest_pending_ = true;
  // Zero-delay event, so it joins the scheduler's same-instant lane, which
  // runs after every heap event due at this instant: every node whose tx
  // event fires at the same simulated instant has enqueued by the time the
  // contest runs, which is what makes same-instant arbitration (lowest id
  // wins) come out right.
  scheduler_.schedule_at(scheduler_.now(), [this] { run_contest(); });
}

void VirtualBus::run_contest() {
  contest_pending_ = false;
  if (busy_) return;

  NodeId winner = kInvalidNode;
  std::uint64_t best_rank = std::numeric_limits<std::uint64_t>::max();
  std::size_t contenders = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    if (!can_transmit(node) || node.tx_queue.empty()) continue;
    ++contenders;
    const std::uint64_t rank = node.tx_queue.front().arbitration_rank();
    if (rank < best_rank) {
      best_rank = rank;
      winner = id;
    }
  }
  if (winner == kInvalidNode) return;
  if (contenders > 1) ++stats_.arbitration_contests;

  const CanFrame& frame = nodes_[winner].tx_queue.front();
  bool corrupted = config_.corruption_probability > 0.0 &&
                   rng_.next_bool(config_.corruption_probability);
  if (nodes_[winner].forced_tx_errors > 0) {
    --nodes_[winner].forced_tx_errors;
    corrupted = true;
  }
  busy_ = true;

  if (!corrupted) {
    const sim::Duration duration = frame_duration(frame);
    stats_.busy_time += duration;
    scheduler_.schedule_after(duration, [this, winner] { complete_transmission(winner); });
    return;
  }

  // Corrupted transmission: the frame is aborted mid-way and an error frame
  // follows.  The transmitter takes TEC += 8 and will retry the same frame.
  const sim::Duration duration =
      frame_duration(frame) / 2 + bit_time(kDefaultBitrate) * kErrorSequenceBits;
  stats_.busy_time += duration;
  scheduler_.schedule_after(duration, [this, winner] {
    busy_ = false;
    ++stats_.error_frames;
    Node& tx = nodes_[winner];
    tx.errors.on_tx_error();
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      Node& node = nodes_[id];
      if (id != winner && node.listener != nullptr && node.powered) node.errors.on_rx_error();
    }
    if (tx.errors.bus_off()) {
      if (!tx.tx_queue.empty()) note_tx_queue_emptied();
      tx.tx_queue.clear();
      ++stats_.drops_bus_off;
      begin_bus_off_recovery(winner);
    }
    request_contest();
  });
}

void VirtualBus::complete_transmission(NodeId winner) {
  busy_ = false;
  const sim::SimTime now = scheduler_.now();
  Node& tx = nodes_[winner];
  if (tx.tx_queue.empty()) {
    // Queue was flushed (reset/power-off) mid-transmission; treat the frame
    // as aborted with nothing delivered.
    request_contest();
    return;
  }
  const CanFrame frame = tx.tx_queue.front();
  tx.tx_queue.pop_front();
  if (tx.tx_queue.empty()) note_tx_queue_emptied();
  tx.errors.on_tx_success();
  ++stats_.frames_delivered;

  if (fanout_dirty_) refresh_fanout();
  for (NodeId id : fanout_) {
    Node& node = nodes_[id];
    // Re-validate: an earlier callback this delivery may have detached or
    // powered the node down (the rebuild itself is deferred).
    if (id == winner || node.listener == nullptr || !node.powered) continue;
    node.errors.on_rx_success();
    if (!node.filters.accepts(frame)) continue;
    ++stats_.deliveries;
    node.listener->on_frame(frame, now);
  }
  request_contest();
}

void VirtualBus::begin_bus_off_recovery(NodeId id) {
  Node& node = nodes_[id];
  node.in_bus_off_recovery = true;
  const sim::Duration wait = bit_time(kDefaultBitrate) * kBusOffRecoveryBits;
  scheduler_.schedule_after(wait, [this, id] {
    Node& n = nodes_[id];
    if (!n.in_bus_off_recovery) return;  // power-cycled meanwhile
    n.in_bus_off_recovery = false;
    n.errors.reset();
    request_contest();
  });
}

void VirtualBus::publish_metrics(metrics::Registry& registry) const {
  registry.counter("can.bus.frames_submitted").add(stats_.frames_submitted);
  registry.counter("can.bus.frames_delivered").add(stats_.frames_delivered);
  registry.counter("can.bus.deliveries").add(stats_.deliveries);
  registry.counter("can.bus.error_frames").add(stats_.error_frames);
  registry.counter("can.bus.drops_bus_off").add(stats_.drops_bus_off);
  registry.counter("can.bus.drops_queue_full").add(stats_.drops_queue_full);
  registry.counter("can.bus.arbitration_contests").add(stats_.arbitration_contests);
  const auto busy_ns = stats_.busy_time.count();
  if (busy_ns > 0) {
    registry.counter("can.bus.busy_ns").add(static_cast<std::uint64_t>(busy_ns));
  }
}

}  // namespace acf::can
