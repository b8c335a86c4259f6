// The persistent-world invariant behind the feedback loop's reset-in-place
// executions: run one script on a feedback::ExecWorld, reset it, run a
// second script, and the world must end exactly where the second script
// leaves a newly built world.  The world_reset self-fuzz target checks it
// on scripts decoded from bytes, the FeedbackWorldReset property test on
// generated ones.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "can/frame.hpp"
#include "vehicle/body_control.hpp"

namespace acf::selftest {

/// One feedback execution's input: the attacker's frames plus the bus
/// faults injected around them.
struct WorldScript {
  std::vector<can::CanFrame> frames;
  /// (node, transmissions) corrupted through VirtualBus::force_tx_errors
  /// before the run; an id with no node is a no-op.
  std::vector<std::pair<can::NodeId, std::uint32_t>> forced_errors;
  /// An error frame is injected at the start of each listed tx slot.
  std::vector<std::uint32_t> error_frame_slots;
};

/// The predicates the invariant is checked on: 0 weak (id and command
/// byte), 1 hardened (length-checked), 2 authenticated; `selector` mod 3.
vehicle::UnlockPredicate world_predicate(std::uint8_t selector);

/// One check of the invariant: the predicate and the two scripts.
struct WorldResetCase {
  vehicle::UnlockPredicate predicate;
  WorldScript first;
  WorldScript second;
};

/// Runs `first`, resets the world and runs `second`, then runs `second` on
/// a new world.  nullopt when both worlds agree on the execution's outcome,
/// the tapped frames, the BCM, head-unit, UDS, authenticator, bus, per-node
/// error, oracle, attacker and scheduler state; otherwise the first
/// quantity that differs.
std::optional<std::string> check_world_reset(const WorldResetCase& check);

/// The world_reset target's input format.  Byte 0 picks the predicate
/// (world_predicate); then each op byte is one of
///   0x00-0xBF  a frame: id from a table of the bench's ids by op & 7
///              (7 = the next two bytes as an 11-bit id), length
///              (op >> 3) mod 9, then that many payload bytes;
///   0xC0-0xDF  forced tx errors on node op & 7, count in the next byte;
///   0xE0-0xEF  an error frame at tx slot op & 15;
///   0xF0-0xFF  ends the first script (later ones are ignored).
/// Each script keeps at most 64 frames and 16 faults of each kind; a
/// truncated op keeps what the bytes hold.
WorldResetCase decode_world_reset_case(std::span<const std::uint8_t> bytes);

}  // namespace acf::selftest
