#include "oracle/bus_oracles.hpp"

#include <cstdio>

namespace acf::oracle {

HeartbeatOracle::HeartbeatOracle(can::VirtualBus& bus, std::uint32_t id,
                                 sim::Duration expected_period,
                                 std::uint32_t missed_beats_failure)
    : bus_(bus), id_(id), period_(expected_period), missed_failure_(missed_beats_failure) {
  node_ = bus_.attach(*this, "oracle.heartbeat",
                      can::FilterBank{can::IdMaskFilter::exact(id)}, /*listen_only=*/true);
}

HeartbeatOracle::~HeartbeatOracle() { bus_.detach(node_); }

void HeartbeatOracle::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (frame.id() != id_) return;
  ++beats_;
  ever_seen_ = true;
  last_beat_ = time;
}

std::optional<Observation> HeartbeatOracle::poll(sim::SimTime now) {
  if (reported_ || !ever_seen_) return std::nullopt;
  const sim::Duration silence = now - last_beat_;
  if (silence < period_ * missed_failure_) return std::nullopt;
  reported_ = true;
  char detail[96];
  std::snprintf(detail, sizeof detail, "heartbeat id 0x%03X missing for %.0f ms (period %.0f ms)",
                id_, sim::to_millis(silence), sim::to_millis(period_));
  return Observation{Verdict::kFailure, detail, now};
}

void HeartbeatOracle::reset() {
  beats_ = 0;
  ever_seen_ = false;
  reported_ = false;
  last_beat_ = sim::SimTime{0};
}

}  // namespace acf::oracle
