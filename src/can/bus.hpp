// VirtualBus: a discrete-event model of a single CAN bus segment.
//
// Fidelity targets (what the paper's experiments depend on):
//  - frames occupy the bus for their exact stuffed wire length at the
//    configured bitrate (500 kb/s default), so injection rates, bus load and
//    time-to-event measurements behave like the physical bench;
//  - arbitration: when several nodes contend for an idle bus, the lowest
//    arbitration rank (priority) wins and losers retransmit;
//  - broadcast: every accepted frame is delivered exactly once to every
//    other powered node whose acceptance filters match;
//  - fault confinement: per-node TEC/REC with error-active/passive/bus-off
//    (a bus-off node rejoins after 128 x 11 recessive bit times), plus
//    optional random frame corruption for failure-injection tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "can/error_state.hpp"
#include "can/filter.hpp"
#include "can/frame.hpp"
#include "can/wire_codec.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace acf::can {

/// Handle identifying an attached node.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// Interface implemented by everything attached to a bus (ECUs, the fuzzer,
/// capture taps, oracles).
class BusListener {
 public:
  virtual ~BusListener() = default;

  /// A frame transmitted by another node has completed successfully.  The
  /// bus calls every powered listener whose filters accept the frame once,
  /// in attach order.
  virtual void on_frame(const CanFrame& frame, sim::SimTime time) = 0;
};

/// The bus runs at kDefaultBitrate, and CAN FD data phases at
/// kDefaultFdDataBitrate.
struct BusConfig {
  /// Probability that any given transmission is hit by a (simulated) bit
  /// error and aborted with an error frame.  0 = clean bus.
  double corruption_probability = 0.0;
  /// Seed for the bus's own randomness (corruption decisions only).
  std::uint64_t seed = 0xb05b05;
};

struct BusStats {
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_delivered = 0;  // successful transmissions
  std::uint64_t deliveries = 0;        // per-receiver deliveries
  std::uint64_t error_frames = 0;
  std::uint64_t drops_bus_off = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t arbitration_contests = 0;  // starts with >1 contender
  sim::Duration busy_time{0};

  /// Fraction of elapsed simulated time the bus was busy.
  double load(sim::SimTime now) const noexcept {
    if (now.count() <= 0) return 0.0;
    return sim::to_seconds(busy_time) / sim::to_seconds(now);
  }
};

class VirtualBus {
 public:
  /// Per-node transmit queue bound; a submit beyond this is dropped and
  /// counted (real controllers have small mailbox sets).
  static constexpr std::size_t kTxQueueLimit = 64;

  explicit VirtualBus(sim::Scheduler& scheduler, BusConfig config = {});
  VirtualBus(const VirtualBus&) = delete;
  VirtualBus& operator=(const VirtualBus&) = delete;

  /// Attaches a node.  `listen_only` taps never transmit and do not ACK.
  /// The listener must outlive the bus or be detached first.
  NodeId attach(BusListener& listener, std::string name, FilterBank filters = {},
                bool listen_only = false);
  void detach(NodeId id);

  /// Returns the bus to its just-built state: every node is powered,
  /// error-active with zeroed counters and lifetime error tallies, out of
  /// bus-off recovery, without forced errors and with an empty transmit
  /// queue; the stats, the busy and contest flags and the corruption RNG
  /// restart.  Keeps every attachment (listener, name, filters, listen-only
  /// mode) and every allocation.  Call it with the scheduler reset too: an
  /// event the bus left pending would act on the reset state.
  void reset();

  /// Queues a frame for transmission.  Returns false if the node is
  /// detached, powered off, listen-only, bus-off, or its queue is full.
  bool submit(NodeId sender, const CanFrame& frame);

  /// Clears a node's pending transmissions (e.g. on ECU reset).
  void flush_tx_queue(NodeId id);

  /// Powers a node on/off.  Off nodes neither receive nor transmit and
  /// their queue is flushed.
  void set_power(NodeId id, bool on);
  bool powered(NodeId id) const;

  /// Deterministic fault injection: the next `count` transmissions won by
  /// `id` are hit by a bus error (same confinement path as random
  /// corruption — TEC += 8, error frame broadcast, retransmission).  Lets
  /// tests drive a chosen node to error-passive/bus-off without relying on
  /// the bus-wide corruption_probability dice.
  void force_tx_errors(NodeId id, std::uint32_t count);
  std::uint32_t forced_tx_errors_remaining(NodeId id) const;

  /// Injects a standalone error frame (a glitched/adversarial error flag on
  /// the wire): every powered node observes it and takes the receiver-side
  /// REC hit.  Does not occupy bus time — it models the six dominant bits an
  /// attacker can assert during inter-frame space.
  void inject_error_frame();

  const ErrorState& error_state(NodeId id) const;
  /// True while the node sits out the 128x11-bit bus-off recovery window.
  bool bus_off_recovering(NodeId id) const;
  std::size_t pending(NodeId id) const;
  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const noexcept;

  const BusStats& stats() const noexcept { return stats_; }

  /// Adds this bus's lifetime delivery/error totals into `can.bus.*`
  /// registry counters; worlds call it once at trial end, so the aggregate
  /// is a deterministic sum of per-trial totals.
  void publish_metrics(metrics::Registry& registry) const;

  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  bool busy() const noexcept { return busy_; }

 private:
  /// Fixed-capacity transmit ring: one contiguous arena per node, allocated
  /// once at first use (capacity = kTxQueueLimit), so the steady-state
  /// submit/pop cycle never touches the allocator the way a deque's segment
  /// churn does.
  class TxRing {
   public:
    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }
    const CanFrame& front() const noexcept { return slots_[head_]; }
    void push_back(const CanFrame& frame) {
      if (slots_ == nullptr) slots_ = std::make_unique<CanFrame[]>(kTxQueueLimit);
      slots_[(head_ + count_) % kTxQueueLimit] = frame;
      ++count_;
    }
    void pop_front() noexcept {
      head_ = (head_ + 1) % kTxQueueLimit;
      --count_;
    }
    void clear() noexcept {
      head_ = 0;
      count_ = 0;
    }

   private:
    std::unique_ptr<CanFrame[]> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Node {
    BusListener* listener = nullptr;  // nullptr after detach
    std::string name;
    FilterBank filters;
    bool listen_only = false;
    bool powered = true;
    bool in_bus_off_recovery = false;
    std::uint32_t forced_tx_errors = 0;
    ErrorState errors;
    TxRing tx_queue;
  };

  void request_contest();
  void run_contest();
  void complete_transmission(NodeId winner);
  void begin_bus_off_recovery(NodeId id);
  bool can_transmit(const Node& node) const noexcept;
  sim::Duration frame_duration(const CanFrame& frame) const;
  void refresh_fanout();
  void note_tx_queue_emptied() noexcept { --tx_pending_nodes_; }

  sim::Scheduler& scheduler_;
  BusConfig config_;
  util::Rng rng_;
  std::vector<Node> nodes_;
  BusStats stats_;
  bool busy_ = false;
  bool contest_pending_ = false;

  /// Receiver fan-out cache: ids of powered, attached nodes, in attach
  /// order.  Rebuilt lazily after attach/detach/set_power/reset; entries are
  /// re-validated during delivery so callbacks may power nodes down mid-run.
  std::vector<NodeId> fanout_;
  bool fanout_dirty_ = true;

  /// Number of nodes with a non-empty tx queue: lets the bus skip scheduling
  /// arbitration-contest events that could only no-op.
  std::size_t tx_pending_nodes_ = 0;
};

}  // namespace acf::can
