// Message definitions: a CAN id, DLC and the signals packed into it, plus
// the transmit schedule (cycle time) used by ECU models.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "can/frame.hpp"
#include "dbc/signal.hpp"

namespace acf::dbc {

struct MessageDef {
  std::uint32_t id = 0;
  can::IdFormat format = can::IdFormat::kStandard;
  std::string name;
  std::uint8_t dlc = 8;
  std::string sender;
  std::uint32_t cycle_time_ms = 0;  // 0 = event-driven
  std::vector<SignalDef> signals;

  const SignalDef* signal(std::string_view sig_name) const noexcept;

  /// True when `frame` carries exactly the declared DLC (remote frames never
  /// match — they carry no data).  This is THE implementation of the paper's
  /// Table V one-line hardening: the BCM's length-checking predicate and the
  /// ids::DlcConsistencyDetector both call it, so prevention and detection
  /// cannot drift apart.
  bool dlc_matches(const can::CanFrame& frame) const noexcept;

  /// Encodes one physical value per declared signal, in declaration order
  /// (`values[i]` is `signals[i]`), into a frame.  Returns nullopt if the
  /// count is not signals.size() or a signal does not fit the DLC.  Builds
  /// the payload on the stack: this is the per-frame path of the ECU models,
  /// which address signals by the positions target_vehicle_db.hpp names.
  std::optional<can::CanFrame> encode(std::span<const double> values) const;

  /// Encodes a set of physical values, keyed by signal name, into a frame.
  /// Signals not present in `values` encode as raw zero.  Returns nullopt if
  /// any named signal is unknown or does not fit the DLC.
  std::optional<can::CanFrame> encode(const std::map<std::string, double>& values) const;

  /// Decodes every signal of the message from `frame`.  Signals that do not
  /// fit the actual payload are omitted (short frames happen under fuzzing).
  /// A consumer that reads a few signals decodes just those instead, with
  /// dbc::decode(signals[i], frame.payload()).
  std::map<std::string, double> decode(const can::CanFrame& frame) const;
};

}  // namespace acf::dbc
