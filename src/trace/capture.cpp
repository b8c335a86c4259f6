#include "trace/capture.hpp"

namespace acf::trace {

CaptureTap::CaptureTap(can::VirtualBus& bus, std::string name, std::size_t limit)
    : bus_(bus), limit_(limit) {
  node_ = bus_.attach(*this, std::move(name), {}, /*listen_only=*/true);
}

CaptureTap::~CaptureTap() { bus_.detach(node_); }

void CaptureTap::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  ++total_seen_;
  if (frames_.size() < limit_) frames_.push_back({frame, time});
}

}  // namespace acf::trace
