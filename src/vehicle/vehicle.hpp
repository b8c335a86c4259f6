// Vehicle harnesses.
//
//  - Vehicle: the full simulated target vehicle — two CAN buses (powertrain
//    and body) joined by a gateway, with ECM, ABS, instrument cluster, BCM
//    and head unit.  Equivalent to the paper's target car, which "exposes
//    two CAN buses" at the OBD port.
//  - UnlockTestbench: the bench-top three-node rig of Figs. 10-12 (head
//    unit + BCM on one bus; the fuzzer attaches as the malicious third
//    node).
#pragma once

#include <memory>

#include "vehicle/body_control.hpp"
#include "vehicle/engine_ecu.hpp"
#include "vehicle/gateway.hpp"
#include "vehicle/head_unit.hpp"
#include "vehicle/instrument_cluster.hpp"

namespace acf::vehicle {

/// Anti-lock braking module: broadcasts per-wheel speeds derived from the
/// vehicle's road speed (its own sensors in the real car).
class AbsEcu final : public ecu::Ecu {
 public:
  AbsEcu(sim::Scheduler& scheduler, can::VirtualBus& bus, const EngineEcu& engine);

 private:
  void handle_frame(const can::CanFrame& frame, sim::SimTime time) override;

  const EngineEcu& engine_;
  const dbc::Database& db_ = dbc::target_vehicle_database();
};

struct VehicleConfig {
  can::BusConfig powertrain_bus;
  can::BusConfig body_bus;
  /// Whitelist forwarding (default) vs forward-everything (a legacy
  /// unfiltered gateway, the ablation baseline).
  bool gateway_filtering = true;
};

class Vehicle {
 public:
  explicit Vehicle(sim::Scheduler& scheduler, VehicleConfig config = {});

  Vehicle(const Vehicle&) = delete;
  Vehicle& operator=(const Vehicle&) = delete;

  can::VirtualBus& powertrain_bus() noexcept { return *powertrain_; }
  can::VirtualBus& body_bus() noexcept { return *body_; }

  EngineEcu& engine() noexcept { return *engine_; }
  AbsEcu& abs() noexcept { return *abs_; }
  InstrumentCluster& cluster() noexcept { return *cluster_; }
  BodyControlModule& bcm() noexcept { return *bcm_; }
  HeadUnit& head_unit() noexcept { return *head_unit_; }
  GatewayEcu& gateway() noexcept { return *gateway_; }

 private:
  std::unique_ptr<can::VirtualBus> powertrain_;
  std::unique_ptr<can::VirtualBus> body_;
  std::unique_ptr<EngineEcu> engine_;
  std::unique_ptr<AbsEcu> abs_;
  std::unique_ptr<InstrumentCluster> cluster_;
  std::unique_ptr<BodyControlModule> bcm_;
  std::unique_ptr<HeadUnit> head_unit_;
  std::unique_ptr<GatewayEcu> gateway_;
};

/// The bench-top unlock rig (paper Figs. 10-12): one bus, head unit and BCM.
/// Predicates with require_auth automatically install a shared session key
/// on both ends.
class UnlockTestbench {
 public:
  UnlockTestbench(sim::Scheduler& scheduler,
                  UnlockPredicate predicate = UnlockPredicate::single_id_and_byte(),
                  can::BusConfig bus_config = {});

  UnlockTestbench(const UnlockTestbench&) = delete;
  UnlockTestbench& operator=(const UnlockTestbench&) = delete;

  can::VirtualBus& bus() noexcept { return *bus_; }
  HeadUnit& head_unit() noexcept { return *head_unit_; }
  BodyControlModule& bcm() noexcept { return *bcm_; }

  /// Resets the bus, the head unit and the BCM in that (construction)
  /// order, so the re-armed periodics take the scheduler sequence numbers a
  /// new testbench's would.  Reset the scheduler first.
  void reset();

 private:
  std::unique_ptr<can::VirtualBus> bus_;
  std::unique_ptr<HeadUnit> head_unit_;
  std::unique_ptr<BodyControlModule> bcm_;
};

}  // namespace acf::vehicle
