#include "selftest/world_reset.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "dbc/target_vehicle_db.hpp"
#include "feedback/exec_world.hpp"

namespace acf::selftest {

namespace {

constexpr std::size_t kMaxScriptFrames = 64;
constexpr std::size_t kMaxScriptFaults = 16;

/// Frame ids a script op can name: the ones the bench reacts to or emits,
/// then a few plain ones.  Index 7, past the end, reads a raw id instead.
constexpr std::array<std::uint32_t, 7> kScriptIds = {
    dbc::kMsgBodyCommand, dbc::kUdsBcmRequest, dbc::kMsgBodyAck, dbc::kUdsBcmResponse,
    0x7DF /* OBD functional request */, 0x100, 0x000};

/// Named quantities a later execution could observe, in a fixed order.
using Quantities = std::vector<std::pair<std::string, std::string>>;

Quantities observe(feedback::ExecWorld& world, const feedback::ExecOutcome& outcome) {
  Quantities q;
  const auto note = [&q](std::string name, auto value) {
    if constexpr (std::is_same_v<decltype(value), std::string>) {
      q.emplace_back(std::move(name), std::move(value));
    } else {
      q.emplace_back(std::move(name), std::to_string(value));
    }
  };

  note("outcome.features", outcome.features.size());
  for (std::size_t i = 0; i < outcome.features.size(); ++i) {
    note("outcome.feature[" + std::to_string(i) + "]", outcome.features[i]);
  }
  note("outcome.hot", outcome.hot);
  note("outcome.elapsed_ns", outcome.elapsed.count());
  note("outcome.frames_sent", outcome.frames_sent);
  note("outcome.send_failures", outcome.send_failures);
  note("outcome.failure", outcome.failure);
  note("outcome.failure_time_ns", outcome.failure_observation.time.count());

  const trace::CaptureTap& tap = world.tap();
  note("tap.frames", tap.frames().size());
  for (std::size_t i = 0; i < tap.frames().size(); ++i) {
    const trace::TimestampedFrame& seen = tap.frames()[i];
    note("tap[" + std::to_string(i) + "]",
         seen.frame.to_string() + " @" + std::to_string(seen.time.count()));
  }
  note("tap.total_seen", tap.total_seen());

  vehicle::BodyControlModule& bcm = world.bench().bcm();
  note("bcm.unlocked", bcm.unlocked());
  note("bcm.unlock_events", bcm.unlock_events());
  note("bcm.lock_events", bcm.lock_events());
  note("bcm.rejected_commands", bcm.rejected_commands());
  note("bcm.crashed", bcm.crashed());
  note("bcm.crash_count", bcm.crash_count());
  note("bcm.dtcs", bcm.dtcs().count());
  if (const security::FrameAuthenticator* verifier = bcm.verifier()) {
    note("bcm.verifier.rx_counter", verifier->rx_counter());
    note("bcm.verifier.accepted", verifier->stats().accepted);
    note("bcm.verifier.bad_length", verifier->stats().bad_length);
    note("bcm.verifier.bad_mac", verifier->stats().bad_mac);
    note("bcm.verifier.replayed", verifier->stats().replayed);
  }
  const uds::UdsServer& uds = *bcm.uds_server();
  note("uds.session", static_cast<int>(uds.session()));
  note("uds.security", static_cast<int>(uds.security_state()));
  note("uds.requests", uds.stats().requests);
  note("uds.positive", uds.stats().positive_responses);
  note("uds.negative", uds.stats().negative_responses);
  note("uds.resets", uds.stats().resets);
  note("uds.unlocks", uds.stats().unlocks);
  note("uds.failed_key_attempts", uds.stats().failed_key_attempts);

  const vehicle::HeadUnit& head_unit = world.bench().head_unit();
  note("head_unit.acks_seen", head_unit.acks_seen());
  note("head_unit.last_acked_command", head_unit.last_acked_command());

  const can::VirtualBus& bus = world.bench().bus();
  const can::BusStats& stats = bus.stats();
  note("bus.frames_submitted", stats.frames_submitted);
  note("bus.frames_delivered", stats.frames_delivered);
  note("bus.deliveries", stats.deliveries);
  note("bus.error_frames", stats.error_frames);
  note("bus.drops_bus_off", stats.drops_bus_off);
  note("bus.drops_queue_full", stats.drops_queue_full);
  note("bus.arbitration_contests", stats.arbitration_contests);
  note("bus.busy_ns", stats.busy_time.count());
  note("bus.busy", bus.busy());
  for (can::NodeId id = 0; id < bus.node_count(); ++id) {
    const std::string node = "node[" + bus.node_name(id) + "].";
    const can::ErrorState& errors = bus.error_state(id);
    note(node + "tec", errors.tec());
    note(node + "rec", errors.rec());
    note(node + "tx_error_events", errors.tx_error_events());
    note(node + "rx_error_events", errors.rx_error_events());
    note(node + "bus_off_events", errors.bus_off_events());
    note(node + "bus_off_recovering", bus.bus_off_recovering(id));
    note(node + "powered", bus.powered(id));
    note(node + "pending", bus.pending(id));
    note(node + "forced_tx_errors", bus.forced_tx_errors_remaining(id));
  }

  const oracle::UnlockOracle& oracle = world.oracle();
  note("oracle.unlock_detected", oracle.unlock_detected());
  note("oracle.unlock_time_ns", oracle.unlock_time().count());
  note("oracle.ack_frames_seen", oracle.ack_frames_seen());

  const transport::TransportStats& attacker = world.attacker().stats();
  note("attacker.frames_sent", attacker.frames_sent);
  note("attacker.frames_received", attacker.frames_received);
  note("attacker.send_failures", attacker.send_failures);

  const sim::Scheduler& scheduler = world.scheduler();
  note("scheduler.now_ns", scheduler.now().count());
  note("scheduler.executed_events", scheduler.executed_events());
  note("scheduler.pending_events", scheduler.pending_events());
  return q;
}

/// Runs `script` as one execution of `world`.
feedback::ExecOutcome run_script(feedback::ExecWorld& world, const WorldScript& script) {
  can::VirtualBus& bus = world.bench().bus();
  for (const auto& [node, count] : script.forced_errors) bus.force_tx_errors(node, count);
  for (const std::uint32_t slot : script.error_frame_slots) {
    world.scheduler().schedule_at(sim::SimTime{feedback::ExecWorld::kTxPeriod * slot},
                                  [&bus] { bus.inject_error_frame(); });
  }
  fuzzer::CoverageTracker coverage;
  return world.execute(script.frames, coverage);
}

}  // namespace

vehicle::UnlockPredicate world_predicate(std::uint8_t selector) {
  switch (selector % 3) {
    case 0: return vehicle::UnlockPredicate::single_id_and_byte();
    case 1: return vehicle::UnlockPredicate::id_byte_and_length();
    default: return vehicle::UnlockPredicate::authenticated();
  }
}

std::optional<std::string> check_world_reset(const WorldResetCase& check) {
  feedback::ExecWorld reused(check.predicate);
  run_script(reused, check.first);
  reused.reset();
  const Quantities after_reset = observe(reused, run_script(reused, check.second));

  feedback::ExecWorld fresh(check.predicate);
  const Quantities on_new_world = observe(fresh, run_script(fresh, check.second));

  const auto [got, want] = std::mismatch(after_reset.begin(), after_reset.end(),
                                         on_new_world.begin(), on_new_world.end());
  if (got == after_reset.end() && want == on_new_world.end()) return std::nullopt;
  if (got == after_reset.end() || want == on_new_world.end()) {
    return "after a reset the world reports " + std::to_string(after_reset.size()) +
           " quantities, a new world " + std::to_string(on_new_world.size());
  }
  return "after a reset " + got->first + " = " + got->second + ", on a new world " +
         want->first + " = " + want->second;
}

WorldResetCase decode_world_reset_case(std::span<const std::uint8_t> bytes) {
  WorldResetCase out{world_predicate(bytes.empty() ? 0 : bytes[0]), {}, {}};
  WorldScript* script = &out.first;
  std::size_t pos = 1;
  const auto next = [&]() -> std::uint8_t { return pos < bytes.size() ? bytes[pos++] : 0; };
  while (pos < bytes.size()) {
    const std::uint8_t op = bytes[pos++];
    if (op < 0xC0) {
      std::uint32_t id = 0;
      if ((op & 7) < kScriptIds.size()) {
        id = kScriptIds[op & 7];
      } else {
        id = static_cast<std::uint32_t>(next() << 8);
        id = (id | next()) & can::kMaxStandardId;
      }
      const std::size_t length = std::min<std::size_t>((op >> 3) % 9, bytes.size() - pos);
      const auto frame = can::CanFrame::data(id, bytes.subspan(pos, length));
      pos += length;
      if (frame && script->frames.size() < kMaxScriptFrames) script->frames.push_back(*frame);
    } else if (op < 0xE0) {
      const std::uint8_t count = next();
      if (script->forced_errors.size() < kMaxScriptFaults) {
        script->forced_errors.emplace_back(op & 7, count);
      }
    } else if (op < 0xF0) {
      if (script->error_frame_slots.size() < kMaxScriptFaults) {
        script->error_frame_slots.push_back(op & 15);
      }
    } else {
      script = &out.second;
    }
  }
  return out;
}

}  // namespace acf::selftest
