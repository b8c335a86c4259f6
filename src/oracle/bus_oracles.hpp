// Network-communication-monitoring oracles: verdicts derived purely from
// observing the bus (the least invasive channel in the paper's list — no
// debug port or XCP needed, and therefore also available to an attacker).
#pragma once

#include <cstdint>

#include "can/bus.hpp"
#include "oracle/oracle.hpp"

namespace acf::oracle {

/// Watches one periodic message id (a heartbeat): suspicious when beats jitter
/// beyond tolerance, fails when `missed_beats_failure` consecutive expected
/// beats never arrive — the least invasive way to spot a silently dead ECU.
class HeartbeatOracle final : public Oracle, private can::BusListener {
 public:
  HeartbeatOracle(can::VirtualBus& bus, std::uint32_t id, sim::Duration expected_period,
                  std::uint32_t missed_beats_failure = 5);
  ~HeartbeatOracle() override;

  std::string_view name() const override { return "heartbeat"; }
  std::optional<Observation> poll(sim::SimTime now) override;
  void reset() override;

  std::uint64_t beats_seen() const noexcept { return beats_; }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  can::VirtualBus& bus_;
  can::NodeId node_;
  std::uint32_t id_;
  sim::Duration period_;
  std::uint32_t missed_failure_;
  sim::SimTime last_beat_{0};
  std::uint64_t beats_ = 0;
  bool ever_seen_ = false;
  bool reported_ = false;
};

}  // namespace acf::oracle
