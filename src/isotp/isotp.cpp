#include "isotp/isotp.hpp"

#include <algorithm>

namespace acf::isotp {

namespace {
constexpr std::uint8_t kPciSingle = 0x0;
constexpr std::uint8_t kPciFirst = 0x1;
constexpr std::uint8_t kPciConsecutive = 0x2;
constexpr std::uint8_t kPciFlowControl = 0x3;

constexpr std::uint8_t kFlowContinue = 0x0;
constexpr std::uint8_t kFlowWait = 0x1;
constexpr std::uint8_t kFlowOverflow = 0x2;

// Pacing for STmin = 0 (~one padded frame time at 500 kb/s) and the retry
// delay when the local controller's transmit queue is full.
constexpr sim::Duration kZeroStMinPacing = std::chrono::microseconds(250);
constexpr sim::Duration kCfRetryDelay = std::chrono::microseconds(500);
}  // namespace

IsoTpChannel::IsoTpChannel(sim::Scheduler& scheduler, SendFn send, IsoTpConfig config)
    : scheduler_(scheduler), send_(std::move(send)), config_(config) {}

bool IsoTpChannel::send_raw(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> padded(bytes.begin(), bytes.end());
  padded.resize(can::kMaxClassicPayload, config_.pad_byte);
  const auto frame = can::CanFrame::data(config_.tx_id, padded);
  if (!frame) return false;
  if (!send_(*frame)) return false;
  ++stats_.frames_sent;
  return true;
}

bool IsoTpChannel::send(std::vector<std::uint8_t> payload) {
  if (tx_.state != TxState::kIdle || payload.size() > kMaxPayload) return false;
  if (payload.size() <= 7) {
    send_single(payload);
    ++stats_.messages_sent;
    if (on_tx_done_) on_tx_done_(true);
    return true;
  }
  tx_.payload = std::move(payload);
  tx_.offset = 0;
  tx_.sequence = 0;
  send_first_frame();
  return true;
}

void IsoTpChannel::send_single(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(payload.size() + 1);
  bytes.push_back(static_cast<std::uint8_t>((kPciSingle << 4) | payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  send_raw(bytes);
}

void IsoTpChannel::send_first_frame() {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(8);
  const auto len = tx_.payload.size();
  bytes.push_back(static_cast<std::uint8_t>((kPciFirst << 4) | ((len >> 8) & 0x0F)));
  bytes.push_back(static_cast<std::uint8_t>(len & 0xFF));
  const std::size_t chunk = std::min<std::size_t>(6, len);
  bytes.insert(bytes.end(), tx_.payload.begin(),
               tx_.payload.begin() + static_cast<std::ptrdiff_t>(chunk));
  tx_.offset = chunk;
  tx_.sequence = 0;
  tx_.fc_waits = 0;
  tx_.state = TxState::kAwaitingFlowControl;
  send_raw(bytes);
  arm_tx_timeout();
}

void IsoTpChannel::send_next_consecutive() {
  if (tx_.state != TxState::kSendingConsecutive) return;
  const auto next_seq = static_cast<std::uint8_t>((tx_.sequence + 1) & 0x0F);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(8);
  bytes.push_back(static_cast<std::uint8_t>((kPciConsecutive << 4) | next_seq));
  const std::size_t remaining = tx_.payload.size() - tx_.offset;
  const std::size_t chunk = std::min<std::size_t>(7, remaining);
  bytes.insert(bytes.end(), tx_.payload.begin() + static_cast<std::ptrdiff_t>(tx_.offset),
               tx_.payload.begin() + static_cast<std::ptrdiff_t>(tx_.offset + chunk));
  if (!send_raw(bytes)) {
    // Controller mailbox full (busy bus): retry without consuming payload —
    // the peer sees an uninterrupted, correctly sequenced CF stream.
    tx_.timer =
        scheduler_.schedule_after(kCfRetryDelay, [this] { send_next_consecutive(); });
    return;
  }
  tx_.sequence = next_seq;
  tx_.offset += chunk;

  if (tx_.offset >= tx_.payload.size()) {
    finish_tx();
    return;
  }
  if (tx_.block_limited && --tx_.frames_until_fc == 0) {
    tx_.state = TxState::kAwaitingFlowControl;
    arm_tx_timeout();
    return;
  }
  // Zero STmin still paces at roughly one frame time so the transmit queue
  // cannot grow without bound on a shared bus.
  const sim::Duration gap = tx_.st_min_ms > 0
                                ? sim::Duration{std::chrono::milliseconds(tx_.st_min_ms)}
                                : kZeroStMinPacing;
  tx_.timer = scheduler_.schedule_after(gap, [this] { send_next_consecutive(); });
}

void IsoTpChannel::send_flow_control(std::uint8_t flow_status) {
  const std::uint8_t bytes[3] = {
      static_cast<std::uint8_t>((kPciFlowControl << 4) | flow_status), config_.block_size,
      config_.st_min_ms};
  send_raw(bytes);
}

void IsoTpChannel::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (frame.id() != config_.rx_id || frame.is_remote() || frame.length() == 0) return;
  const auto payload = frame.payload();
  const std::uint8_t pci_type = payload[0] >> 4;
  switch (pci_type) {
    case kPciSingle: on_single(payload, time); break;
    case kPciFirst: on_first_frame(payload, time); break;
    case kPciConsecutive: on_consecutive(payload, time); break;
    case kPciFlowControl: on_flow_control(payload); break;
    default: ++stats_.malformed_frames; break;
  }
}

void IsoTpChannel::on_single(std::span<const std::uint8_t> payload, sim::SimTime time) {
  const std::size_t len = payload[0] & 0x0F;
  if (len == 0 || len > 7 || payload.size() < len + 1) {
    ++stats_.malformed_frames;
    return;
  }
  ++stats_.messages_received;
  if (on_message_) {
    on_message_(std::vector<std::uint8_t>(payload.begin() + 1,
                                          payload.begin() + 1 + static_cast<std::ptrdiff_t>(len)),
                time);
  }
}

void IsoTpChannel::on_first_frame(std::span<const std::uint8_t> payload, sim::SimTime) {
  if (payload.size() < 8) {
    ++stats_.malformed_frames;
    return;
  }
  if (rx_.state == RxState::kReceiving) abort_rx();  // new FF pre-empts
  const std::size_t len =
      (static_cast<std::size_t>(payload[0] & 0x0F) << 8) | payload[1];
  if (len <= 7) {
    ++stats_.malformed_frames;  // FF must carry > 7 bytes
    return;
  }
  if (len > kMaxPayload) {
    send_flow_control(kFlowOverflow);
    return;
  }
  rx_.state = RxState::kReceiving;
  rx_.expected = len;
  rx_.payload.assign(payload.begin() + 2, payload.begin() + 8);
  rx_.sequence = 0;
  rx_.frames_since_fc = 0;
  send_flow_control(kFlowContinue);
  arm_rx_timeout();
}

void IsoTpChannel::on_consecutive(std::span<const std::uint8_t> payload, sim::SimTime time) {
  if (rx_.state != RxState::kReceiving) {
    ++stats_.malformed_frames;
    return;
  }
  if (payload.size() < 2) {
    // A CF must carry at least one data byte; an empty one would consume a
    // sequence number while contributing nothing, stalling the transfer.
    ++stats_.malformed_frames;
    return;
  }
  const std::uint8_t seq = payload[0] & 0x0F;
  const std::uint8_t expected = static_cast<std::uint8_t>((rx_.sequence + 1) & 0x0F);
  if (seq != expected) {
    abort_rx();
    return;
  }
  rx_.sequence = seq;
  const std::size_t remaining = rx_.expected - rx_.payload.size();
  const std::size_t chunk = std::min<std::size_t>({7, remaining, payload.size() - 1});
  rx_.payload.insert(rx_.payload.end(), payload.begin() + 1,
                     payload.begin() + 1 + static_cast<std::ptrdiff_t>(chunk));

  if (rx_.payload.size() >= rx_.expected) {
    scheduler_.cancel(rx_.timer);
    rx_.state = RxState::kIdle;
    ++stats_.messages_received;
    if (on_message_) on_message_(rx_.payload, time);
    return;
  }
  if (config_.block_size != 0 && ++rx_.frames_since_fc >= config_.block_size) {
    rx_.frames_since_fc = 0;
    send_flow_control(kFlowContinue);
  }
  arm_rx_timeout();
}

void IsoTpChannel::on_flow_control(std::span<const std::uint8_t> payload) {
  if (payload.size() < 3) {
    ++stats_.malformed_frames;  // truncated FC: PCI promises 3 bytes
    return;
  }
  if (tx_.state != TxState::kAwaitingFlowControl) return;
  scheduler_.cancel(tx_.timer);
  const std::uint8_t flow_status = payload[0] & 0x0F;
  if (flow_status == kFlowWait) {
    // N_WFTmax: a peer may ask for a bounded number of consecutive waits;
    // past that it is stalling us (hostile or broken) and we abort instead
    // of re-arming the timeout forever.
    if (++tx_.fc_waits > config_.max_fc_waits) {
      ++stats_.fc_wait_aborts;
      abort_tx();
      return;
    }
    arm_tx_timeout();  // peer asks us to keep waiting
    return;
  }
  if (flow_status != kFlowContinue) {
    abort_tx();
    return;
  }
  tx_.fc_waits = 0;
  tx_.block_limited = payload[1] != 0;
  tx_.frames_until_fc = payload[1];
  // STmin 0x00..0x7F are milliseconds; 0xF1..0xF9 are 100..900 us (round up
  // to 1 ms on our millisecond pacing); other values are reserved => 127 ms.
  const std::uint8_t st = payload[2];
  if (st <= 0x7F) {
    tx_.st_min_ms = st;
  } else if (st >= 0xF1 && st <= 0xF9) {
    tx_.st_min_ms = 1;
  } else {
    tx_.st_min_ms = 127;
  }
  tx_.state = TxState::kSendingConsecutive;
  send_next_consecutive();
}

void IsoTpChannel::arm_tx_timeout() {
  scheduler_.cancel(tx_.timer);
  tx_.timer = scheduler_.schedule_after(config_.timeout, [this] {
    if (tx_.state == TxState::kAwaitingFlowControl) abort_tx();
  });
}

void IsoTpChannel::arm_rx_timeout() {
  scheduler_.cancel(rx_.timer);
  rx_.timer = scheduler_.schedule_after(config_.timeout, [this] {
    if (rx_.state == RxState::kReceiving) abort_rx();
  });
}

void IsoTpChannel::reset() {
  scheduler_.cancel(tx_.timer);
  scheduler_.cancel(rx_.timer);
  // Fresh transfer records that keep the payload buffers.
  tx_ = TxTransfer{.payload = std::move(tx_.payload)};
  rx_ = RxTransfer{.payload = std::move(rx_.payload)};
  tx_.payload.clear();
  rx_.payload.clear();
  stats_ = IsoTpStats{};
}

void IsoTpChannel::abort_tx() {
  scheduler_.cancel(tx_.timer);
  tx_.state = TxState::kIdle;
  tx_.payload.clear();
  ++stats_.tx_aborts;
  if (on_tx_done_) on_tx_done_(false);
}

void IsoTpChannel::abort_rx() {
  scheduler_.cancel(rx_.timer);
  rx_.state = RxState::kIdle;
  rx_.payload.clear();
  ++stats_.rx_aborts;
}

void IsoTpChannel::finish_tx() {
  scheduler_.cancel(tx_.timer);
  tx_.state = TxState::kIdle;
  tx_.payload.clear();
  ++stats_.messages_sent;
  if (on_tx_done_) on_tx_done_(true);
}

}  // namespace acf::isotp
