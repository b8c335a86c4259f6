#include "vehicle/gateway.hpp"

#include "dbc/target_vehicle_db.hpp"

namespace acf::vehicle {

GatewayEcu::GatewayEcu(can::VirtualBus& powertrain, can::VirtualBus& body,
                       ForwardRule powertrain_to_body, ForwardRule body_to_powertrain)
    : powertrain_(powertrain), body_(body), p_to_b_(std::move(powertrain_to_body)),
      b_to_p_(std::move(body_to_powertrain)), powertrain_port_(*this, true),
      body_port_(*this, false) {
  powertrain_node_ = powertrain_.attach(powertrain_port_, "GATEWAY.pt");
  body_node_ = body_.attach(body_port_, "GATEWAY.body");
}

GatewayEcu::~GatewayEcu() {
  powertrain_.detach(powertrain_node_);
  body_.detach(body_node_);
}

ForwardRule GatewayEcu::default_powertrain_to_body() {
  ForwardRule rule;
  for (std::uint32_t id : {dbc::kMsgEngineData, dbc::kMsgVehicleSpeed, dbc::kMsgWheelSpeeds,
                           dbc::kMsgPowertrainStatus, dbc::kMsgTelltales,
                           dbc::kUdsEngineResponse}) {
    rule.whitelist.add(can::IdMaskFilter::exact(id));
  }
  return rule;
}

ForwardRule GatewayEcu::default_body_to_powertrain() {
  ForwardRule rule;
  // Only tester->ECM diagnostics cross into the powertrain segment: the
  // physical UDS/OBD request id and the J1979 functional broadcast.
  rule.whitelist.add(can::IdMaskFilter::exact(dbc::kUdsEngineRequest));
  rule.whitelist.add(can::IdMaskFilter::exact(0x7DF));
  return rule;
}

void GatewayEcu::forward(const can::CanFrame& frame, sim::SimTime, bool from_powertrain) {
  if (from_powertrain) {
    if (p_to_b_.allows(frame)) {
      body_.submit(body_node_, frame);
      ++stats_.forwarded_p_to_b;
    } else {
      ++stats_.blocked_p_to_b;
    }
  } else {
    if (b_to_p_.allows(frame)) {
      powertrain_.submit(powertrain_node_, frame);
      ++stats_.forwarded_b_to_p;
    } else {
      ++stats_.blocked_b_to_p;
    }
  }
}

}  // namespace acf::vehicle
