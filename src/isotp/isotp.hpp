// ISO 15765-2 (ISO-TP) transport: segments payloads of up to 4095 bytes
// into CAN frames with flow control.  UDS (ISO 14229) runs on top of this —
// the ECU "operating modes" (locked/unlocked for service) the paper calls
// out as a state every tester must cover are reached through these channels.
//
// The channel is deliberately decoupled from the transport: the owner feeds
// received frames through handle_frame() and provides a send function, so an
// ECU can multiplex ISO-TP among its other rx traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "can/frame.hpp"
#include "sim/scheduler.hpp"

namespace acf::isotp {

/// Largest payload a classic ISO-TP transfer can carry (12-bit length).
inline constexpr std::size_t kMaxPayload = 4095;

struct IsoTpConfig {
  std::uint32_t tx_id = 0x7E0;  // id our frames carry
  std::uint32_t rx_id = 0x7E8;  // id we listen for
  /// Flow-control parameters we advertise as a receiver.
  std::uint8_t block_size = 0;  // 0 = send everything after one FC
  std::uint8_t st_min_ms = 0;   // minimum gap between consecutive CFs
  /// N_Bs / N_Cr timeout: how long to wait for the peer's next protocol
  /// frame before aborting a transfer.
  sim::Duration timeout{std::chrono::milliseconds(1000)};
  /// N_WFTmax: consecutive FlowControl-Wait frames tolerated before the
  /// sender aborts.  Without a bound a hostile peer answering every FF with
  /// Wait pins the transmitter in kAwaitingFlowControl forever.
  std::uint8_t max_fc_waits = 8;
  /// Every frame is padded to 8 bytes with this value (ISO 15765-2
  /// requires consistent DLC for most OEMs).
  std::uint8_t pad_byte = 0xCC;
};

struct IsoTpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t tx_aborts = 0;        // timeout / overflow / bad FC
  std::uint64_t rx_aborts = 0;        // sequence error / timeout
  std::uint64_t malformed_frames = 0; // unparseable PCI on our rx id
  std::uint64_t fc_wait_aborts = 0;   // peer exceeded N_WFTmax Wait frames
};

class IsoTpChannel {
 public:
  using SendFn = std::function<bool(const can::CanFrame&)>;
  using MessageCallback = std::function<void(const std::vector<std::uint8_t>&, sim::SimTime)>;

  IsoTpChannel(sim::Scheduler& scheduler, SendFn send, IsoTpConfig config);

  /// Starts sending a payload (<= 4095 bytes).  Returns false if a transfer
  /// is already in progress or the payload is too large.
  bool send(std::vector<std::uint8_t> payload);
  bool tx_busy() const noexcept { return tx_.state != TxState::kIdle; }

  /// Feed every received CAN frame here; frames not on rx_id are ignored,
  /// so it is safe to feed the whole bus stream.
  void handle_frame(const can::CanFrame& frame, sim::SimTime time);

  void set_on_message(MessageCallback callback) { on_message_ = std::move(callback); }
  /// Invoked when an outgoing transfer completes (true) or aborts (false).
  void set_on_tx_done(std::function<void(bool)> callback) { on_tx_done_ = std::move(callback); }

  const IsoTpStats& stats() const noexcept { return stats_; }
  const IsoTpConfig& config() const noexcept { return config_; }

  /// Drops any transfer in progress without reporting it (no abort count,
  /// no tx-done callback), cancels its timers and zeroes the stats.  Keeps
  /// the callbacks and the payload buffers' capacity.
  void reset();

 private:
  enum class TxState { kIdle, kAwaitingFlowControl, kSendingConsecutive };
  enum class RxState { kIdle, kReceiving };

  struct TxTransfer {
    TxState state = TxState::kIdle;
    std::vector<std::uint8_t> payload;
    std::size_t offset = 0;
    std::uint8_t sequence = 0;
    std::uint8_t frames_until_fc = 0;  // 0 = unlimited in this block
    bool block_limited = false;
    std::uint8_t st_min_ms = 0;
    std::uint8_t fc_waits = 0;  // consecutive Wait frames in this pause
    sim::EventId timer{};
  };
  struct RxTransfer {
    RxState state = RxState::kIdle;
    std::vector<std::uint8_t> payload;
    std::size_t expected = 0;
    std::uint8_t sequence = 0;
    std::uint8_t frames_since_fc = 0;
    sim::EventId timer{};
  };

  bool send_raw(std::span<const std::uint8_t> bytes);
  void send_single(std::span<const std::uint8_t> payload);
  void send_first_frame();
  void send_next_consecutive();
  void send_flow_control(std::uint8_t flow_status);
  void on_flow_control(std::span<const std::uint8_t> payload);
  void on_first_frame(std::span<const std::uint8_t> payload, sim::SimTime time);
  void on_consecutive(std::span<const std::uint8_t> payload, sim::SimTime time);
  void on_single(std::span<const std::uint8_t> payload, sim::SimTime time);
  void arm_tx_timeout();
  void arm_rx_timeout();
  void abort_tx();
  void abort_rx();
  void finish_tx();

  sim::Scheduler& scheduler_;
  SendFn send_;
  IsoTpConfig config_;
  TxTransfer tx_;
  RxTransfer rx_;
  IsoTpStats stats_;
  MessageCallback on_message_;
  std::function<void(bool)> on_tx_done_;
};

}  // namespace acf::isotp
