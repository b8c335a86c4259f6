// Ecu: base class for every simulated controller.
//
// Provides what the vehicle models need from their "hardware": a bus
// attachment, a periodic transmit schedule, power cycling, crash semantics
// (a crashed ECU goes silent until power-cycled — the observable the
// component-crash oracle keys on), a DTC store, and an optional UDS server
// endpoint over ISO-TP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "ecu/dtc.hpp"
#include "isotp/isotp.hpp"
#include "sim/scheduler.hpp"
#include "uds/uds_server.hpp"

namespace acf::ecu {

class Ecu : protected can::BusListener {
 public:
  Ecu(sim::Scheduler& scheduler, can::VirtualBus& bus, std::string name);
  ~Ecu() override;

  Ecu(const Ecu&) = delete;
  Ecu& operator=(const Ecu&) = delete;

  const std::string& name() const noexcept { return name_; }
  bool powered() const noexcept { return powered_; }
  bool crashed() const noexcept { return crashed_; }
  const std::string& crash_reason() const noexcept { return crash_reason_; }
  std::uint32_t crash_count() const noexcept { return crash_count_; }

  void power_off();
  void power_on();
  /// Off for `off_time`, then back on (volatile state re-initialised).
  void power_cycle(sim::Duration off_time = std::chrono::milliseconds(100));

  DtcStore& dtcs() noexcept { return dtcs_; }
  const DtcStore& dtcs() const noexcept { return dtcs_; }

  /// UDS endpoint, if enabled by the subclass.
  uds::UdsServer* uds_server() noexcept { return uds_server_.get(); }

  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  can::VirtualBus& bus() noexcept { return bus_; }
  can::NodeId node_id() const noexcept { return node_; }

 protected:
  /// Registers a message transmitted every `period` while powered and not
  /// crashed.  `producer` may return nullopt to skip a cycle.
  void add_periodic(sim::Duration period,
                    std::function<std::optional<can::CanFrame>()> producer);

  /// Transmits immediately (event-driven messages).  No-op when powered off
  /// or crashed.
  bool send(const can::CanFrame& frame);

  /// Subclass receives every bus frame passing the node's filters.
  virtual void handle_frame(const can::CanFrame& frame, sim::SimTime time) = 0;

  /// Called after power-on so subclasses re-initialise volatile state.
  /// Crash latches stored in "non-volatile memory" deliberately survive.
  virtual void on_power_on() {}

  /// Enters the crashed state: all transmission and reception stops until a
  /// power cycle.  Models the firmware hang / corrupted state the paper
  /// produced in the real instrument cluster.
  void crash(std::string reason);

  /// Enables a UDS server on this ECU at the given request/response ids.
  void enable_uds(std::uint32_t request_id, std::uint32_t response_id);

  /// The Ecu part of a subclass's full reset to its just-built state:
  /// powered, no crash latch (crash count included), no DTCs, the UDS
  /// server back to its built state, the ISO-TP channel idle, and every
  /// tick group armed again in registration order.  Unlike power_cycle()
  /// it also clears the latches that survive a power cycle.  Keeps the
  /// periodic producers, the bus attachment and every allocation.  The
  /// scheduler must have been reset first (the old tick events are gone).
  void factory_reset();

 private:
  // can::BusListener
  void on_frame(const can::CanFrame& frame, sim::SimTime time) final;

  /// Schedules tick group `group`'s repeating event.
  void arm_tick_group(std::size_t group);

  struct PeriodicEntry {
    sim::Duration period;
    std::function<std::optional<can::CanFrame>()> producer;
  };

  /// One scheduler event per distinct period; entries index periodics_ in
  /// registration order (see add_periodic).
  struct TickGroup {
    sim::Duration period;
    std::vector<std::size_t> entries;
  };

  sim::Scheduler& scheduler_;
  can::VirtualBus& bus_;
  std::string name_;
  can::NodeId node_;
  bool powered_ = true;
  bool crashed_ = false;
  std::string crash_reason_;
  std::uint32_t crash_count_ = 0;
  std::vector<PeriodicEntry> periodics_;
  std::vector<TickGroup> tick_groups_;
  DtcStore dtcs_;

  std::unique_ptr<uds::UdsServer> uds_server_;
  std::unique_ptr<isotp::IsoTpChannel> uds_channel_;
};

}  // namespace acf::ecu
