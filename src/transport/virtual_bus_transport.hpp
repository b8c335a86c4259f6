// CanTransport adaptor over a VirtualBus node.
#pragma once

#include <string>

#include "can/bus.hpp"
#include "transport/transport.hpp"

namespace acf::transport {

class VirtualBusTransport final : public CanTransport, private can::BusListener {
 public:
  /// Attaches to the bus under `name`.  The transport must not outlive the
  /// bus.  `filters` restricts reception like controller hardware filters.
  VirtualBusTransport(can::VirtualBus& bus, std::string name, can::FilterBank filters = {},
                      bool listen_only = false);
  ~VirtualBusTransport() override;

  VirtualBusTransport(const VirtualBusTransport&) = delete;
  VirtualBusTransport& operator=(const VirtualBusTransport&) = delete;

  bool send(const can::CanFrame& frame) override;
  void set_rx_callback(RxCallback callback) override;
  std::string name() const override { return "vbus:" + name_; }
  const TransportStats& stats() const override { return stats_; }

  /// Zeroes the stats (the node's bus state belongs to VirtualBus::reset).
  void reset_stats() noexcept { stats_ = TransportStats{}; }

  can::NodeId node_id() const noexcept { return node_; }
  const can::ErrorState& error_state() const { return bus_.error_state(node_); }
  const can::ErrorState* bus_error_state() const override { return &error_state(); }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  can::VirtualBus& bus_;
  std::string name_;
  can::NodeId node_;
  RxCallback rx_;
  TransportStats stats_;
};

}  // namespace acf::transport
