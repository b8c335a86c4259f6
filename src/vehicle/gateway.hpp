// Gateway ECU bridging the powertrain and body buses.
//
// The paper's discussion notes that "the use of a gateway ECU in newer
// vehicles indicates that manufacturers are responding" to CAN's openness.
// The ablation bench (A2) measures exactly this: with whitelist forwarding,
// fuzz traffic injected on one bus no longer reaches victims on the other.
#pragma once

#include <cstdint>
#include <string>

#include "can/bus.hpp"
#include "can/filter.hpp"

namespace acf::vehicle {

/// Per-direction forwarding policy.  Unlike controller acceptance filters,
/// an empty whitelist here means "forward nothing".
struct ForwardRule {
  bool forward_all = false;
  can::FilterBank whitelist;

  bool allows(const can::CanFrame& frame) const noexcept {
    if (forward_all) return true;
    return !whitelist.empty() && whitelist.accepts(frame);
  }
};

struct GatewayStats {
  std::uint64_t forwarded_p_to_b = 0;
  std::uint64_t forwarded_b_to_p = 0;
  std::uint64_t blocked_p_to_b = 0;
  std::uint64_t blocked_b_to_p = 0;
};

class GatewayEcu {
 public:
  GatewayEcu(can::VirtualBus& powertrain, can::VirtualBus& body, ForwardRule powertrain_to_body,
             ForwardRule body_to_powertrain);
  ~GatewayEcu();

  GatewayEcu(const GatewayEcu&) = delete;
  GatewayEcu& operator=(const GatewayEcu&) = delete;

  /// Whitelists for the standard vehicle: cluster feed (engine, speed,
  /// status, telltales, wheels) powertrain->body; diagnostics both ways.
  static ForwardRule default_powertrain_to_body();
  static ForwardRule default_body_to_powertrain();

  const GatewayStats& stats() const noexcept { return stats_; }

 private:
  class Port final : public can::BusListener {
   public:
    Port(GatewayEcu& owner, bool from_powertrain) : owner_(owner),
                                                    from_powertrain_(from_powertrain) {}
    void on_frame(const can::CanFrame& frame, sim::SimTime time) override {
      owner_.forward(frame, time, from_powertrain_);
    }

   private:
    GatewayEcu& owner_;
    bool from_powertrain_;
  };

  void forward(const can::CanFrame& frame, sim::SimTime time, bool from_powertrain);

  can::VirtualBus& powertrain_;
  can::VirtualBus& body_;
  ForwardRule p_to_b_;
  ForwardRule b_to_p_;
  Port powertrain_port_;
  Port body_port_;
  can::NodeId powertrain_node_;
  can::NodeId body_node_;
  GatewayStats stats_;
};

}  // namespace acf::vehicle
