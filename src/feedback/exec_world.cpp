#include "feedback/exec_world.hpp"

#include <algorithm>

namespace acf::feedback {

namespace {
// Features outside the (id, dlc) cells: four ECU-state, two oracle and four
// bus-error ones at most.
constexpr std::size_t kScalarFeatures = 10;
// Extra simulated time after the last tx slot, for acks to land.
constexpr sim::Duration kSettle = std::chrono::milliseconds(2);
}  // namespace

ExecWorld::ExecWorld(vehicle::UnlockPredicate predicate)
    // One 64-event slab chunk holds the sends (at most
    // SequenceMutator::kMaxFrames) plus the bench's own events.
    : scheduler_(64),
      bench_(scheduler_, predicate),
      attacker_(bench_.bus(), "attacker"),
      tap_(bench_.bus(), "feedback.tap"),
      oracle_(bench_.bus(), &bench_.bcm()) {}

void ExecWorld::reset() {
  scheduler_.reset();
  bench_.reset();
  attacker_.reset_stats();
  tap_.reset();
  oracle_.reset();
}

ExecOutcome ExecWorld::execute(std::span<const can::CanFrame> sequence,
                               fuzzer::CoverageTracker& coverage) {
  ExecOutcome out;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    // Captures the index, not the frame: `sequence` outlives the run, and a
    // by-value frame would push the closure past the inline action buffer.
    const auto send = [&, i] {
      if (attacker_.send(sequence[i])) {
        ++out.frames_sent;
        coverage.add(sequence[i]);
      } else {
        ++out.send_failures;
      }
    };
    static_assert(sim::PooledAction::inlined<decltype(send)>());
    scheduler_.schedule_at(sim::SimTime{kTxPeriod * (i + 1)}, send);
  }
  // Short, bounded window: the sends plus a settle margin for acks.  The
  // bench's 100 ms periodics never fire inside it, so the tap sees only the
  // injected traffic and its direct consequences.
  scheduler_.run_for(kTxPeriod * (sequence.size() + 1) + kSettle);
  out.elapsed = sim::Duration{scheduler_.now()};

  const auto observation = oracle_.poll(scheduler_.now());
  if (observation && observation->verdict == oracle::Verdict::kFailure) {
    out.failure = true;
    out.failure_observation = *observation;
    coverage.add_oracle_event();
  }

  // --- behaviour -> features ---------------------------------------------
  // (id, dlc) traffic cells with bucketed hit counts, from the tap: sorting
  // the keys puts each cell's hits in one run.
  cell_keys_.clear();
  for (const trace::TimestampedFrame& seen : tap_.frames()) {
    cell_keys_.push_back((static_cast<std::uint64_t>(seen.frame.id()) << 8) |
                         seen.frame.dlc());
  }
  std::sort(cell_keys_.begin(), cell_keys_.end());
  out.features.reserve(cell_keys_.size() + kScalarFeatures);
  for (std::size_t first = 0; first < cell_keys_.size();) {
    std::size_t last = first + 1;
    while (last < cell_keys_.size() && cell_keys_[last] == cell_keys_[first]) ++last;
    out.features.push_back(make_feature(Domain::kFrameCell, cell_keys_[first], last - first));
    first = last;
  }
  // Simulator-internal ECU state: the counters a real bench hides.  Any
  // movement here marks the seed "hot" — it found the command channel.
  const auto ecu_state = [&](std::uint64_t key, std::uint64_t count) {
    if (count == 0) return;
    out.features.push_back(make_feature(Domain::kEcuState, key, count));
    out.hot = true;
  };
  const vehicle::BodyControlModule& bcm = bench_.bcm();
  ecu_state(1, bcm.unlock_events());
  ecu_state(2, bcm.lock_events());
  ecu_state(3, bcm.rejected_commands());
  ecu_state(4, bcm.unlocked() ? 1 : 0);
  // Oracle-domain observations (verdict level only — detail strings are
  // human-facing and must not fake novelty).
  if (oracle_.ack_frames_seen() > 0) {
    out.features.push_back(make_feature(Domain::kOracle, 1, oracle_.ack_frames_seen()));
    out.hot = true;
  }
  if (observation) {
    out.features.push_back(make_feature(
        Domain::kOracle, 2 + static_cast<std::uint64_t>(observation->verdict), 1));
    out.hot = true;
  }
  // Bus error excursions.
  const can::BusStats& bus = bench_.bus().stats();
  const auto bus_error = [&](std::uint64_t key, std::uint64_t count) {
    if (count == 0) return;
    out.features.push_back(make_feature(Domain::kBusError, key, count));
  };
  bus_error(1, bus.error_frames);
  bus_error(2, bus.drops_bus_off);
  bus_error(3, bus.drops_queue_full);
  bus_error(4, bus.arbitration_contests);

  std::sort(out.features.begin(), out.features.end());
  out.features.erase(std::unique(out.features.begin(), out.features.end()),
                     out.features.end());
  return out;
}

}  // namespace acf::feedback
