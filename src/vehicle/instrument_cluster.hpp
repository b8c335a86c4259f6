// Instrument cluster model: gauges, telltales (MILs), warning buzzer and a
// segment display.
//
// Deliberately reproduces two properties of the real component the paper
// fuzzed:
//  1. No plausibility filtering on gauge inputs — the needle shows whatever
//     decodes from the frame, including a negative RPM (Fig. 8);
//  2. An injected firmware defect in a legacy factory-test display handler:
//     an out-of-range mode/argument pair corrupts non-volatile state and
//     latches a permanent "CrAsH" display that survives power cycling
//     (Fig. 9: "Unfortunately the crash message would not clear").
#pragma once

#include <memory>
#include <string>

#include "dbc/target_vehicle_db.hpp"
#include "ecu/ecu.hpp"
#include "xcp/xcp.hpp"

namespace acf::vehicle {

class InstrumentCluster final : public ecu::Ecu {
 public:
  InstrumentCluster(sim::Scheduler& scheduler, can::VirtualBus& bus);

  // Gauge needles (displayed values, not plausibility-checked).
  double rpm_gauge() const noexcept { return rpm_gauge_; }
  double speed_gauge() const noexcept { return speed_gauge_; }
  double coolant_gauge() const noexcept { return coolant_gauge_; }
  double fuel_gauge() const noexcept { return fuel_gauge_; }

  // Telltales and warnings.
  bool mil_on() const noexcept { return mil_on_; }
  bool any_warning_lit() const noexcept;
  std::uint64_t warning_sounds() const noexcept { return warning_sounds_; }

  /// Cumulative needle travel (sum of |gauge deltas|) — the "erratic gauge
  /// needles" observable.
  double needle_travel() const noexcept { return needle_travel_; }

  /// Text on the segment display ("" when blank; "CrAsH" once latched).
  const std::string& display_text() const noexcept { return display_text_; }

  /// True once the defect has corrupted NV memory.  Survives power cycles.
  bool crash_latched() const noexcept { return nv_crash_latched_; }

  /// Count of frames whose decoded signals violated their declared range.
  std::uint64_t implausible_values_seen() const noexcept { return implausible_values_; }

  /// The XCP calibration/measurement endpoint (development instrumentation
  /// left enabled — the monitoring channel of [15] and the attack surface
  /// the paper warns about).  Memory map, little-endian:
  ///   0x1000  rpm gauge   (i32, rpm)        read-only
  ///   0x1004  speed gauge (i32, 0.1 km/h)   read-only
  ///   0x1008  status flags (u8: b0=MIL, b1=crash latch)  READ-WRITE
  ///   0x100C  warning sound count (u32)     read-only
  xcp::XcpSlave& xcp() noexcept { return *xcp_; }
  static constexpr std::uint32_t kXcpRxId = 0x6C0;
  static constexpr std::uint32_t kXcpTxId = 0x6C1;
  static constexpr std::uint32_t kXcpAddrRpm = 0x1000;
  static constexpr std::uint32_t kXcpAddrSpeed = 0x1004;
  static constexpr std::uint32_t kXcpAddrFlags = 0x1008;
  static constexpr std::uint32_t kXcpAddrWarnCount = 0x100C;

 private:
  void handle_frame(const can::CanFrame& frame, sim::SimTime time) override;
  void on_power_on() override;
  void handle_display_command(const can::CanFrame& frame);
  void set_gauge(double& gauge, double value);
  void note_implausible(const char* what);

  const dbc::Database& db_ = dbc::target_vehicle_database();

  double rpm_gauge_ = 0.0;
  double speed_gauge_ = 0.0;
  double coolant_gauge_ = 0.0;
  double fuel_gauge_ = 0.0;
  double needle_travel_ = 0.0;

  bool mil_on_ = false;
  bool coolant_warning_ = false;
  bool abs_warning_ = false;
  bool airbag_warning_ = false;
  bool oil_warning_ = false;
  bool battery_warning_ = false;
  std::uint64_t warning_sounds_ = 0;
  std::uint64_t implausible_values_ = 0;

  std::string display_text_;
  // "Non-volatile" state: survives power cycles by design.
  bool nv_crash_latched_ = false;

  std::unique_ptr<xcp::XcpSlave> xcp_;
};

}  // namespace acf::vehicle
