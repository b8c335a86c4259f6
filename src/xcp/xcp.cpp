#include "xcp/xcp.hpp"

namespace acf::xcp {

XcpSlave::XcpSlave(std::uint32_t rx_id, std::uint32_t tx_id, XcpMemoryMap memory, SendFn send)
    : rx_id_(rx_id), tx_id_(tx_id), memory_(std::move(memory)), send_(std::move(send)) {}

void XcpSlave::respond(std::vector<std::uint8_t> payload) {
  ++served_;
  if (const auto frame = can::CanFrame::data(tx_id_, payload)) send_(*frame);
}

void XcpSlave::error(std::uint8_t code) {
  ++errors_;
  if (const auto frame = can::CanFrame::data(tx_id_, {kPidError, code})) send_(*frame);
}

void XcpSlave::handle_frame(const can::CanFrame& frame, sim::SimTime) {
  if (frame.id() != rx_id_ || frame.is_remote() || frame.length() == 0) return;
  const auto payload = frame.payload();
  const std::uint8_t command = payload[0];

  switch (command) {
    case kCmdConnect:
      connected_ = true;
      // resource byte, comm mode, max CTO, max DTO(2), protocol ver, tp ver
      respond({kPidPositive, 0x01, 0x00, 8, 8, 0, 1, 1});
      return;
    case kCmdDisconnect:
      connected_ = false;
      respond({kPidPositive});
      return;
    default:
      break;
  }
  if (!connected_) {
    error(kErrNotConnected);
    return;
  }

  switch (command) {
    case kCmdGetStatus:
      respond({kPidPositive, 0x00, 0x00, 0x00, 0x00, 0x00});
      return;
    case kCmdSetMta: {
      // CMD res res ext addr[4] (little-endian address)
      if (payload.size() < 8) {
        error(kErrCmdSyntax);
        return;
      }
      mta_ = static_cast<std::uint32_t>(payload[4]) |
             (static_cast<std::uint32_t>(payload[5]) << 8) |
             (static_cast<std::uint32_t>(payload[6]) << 16) |
             (static_cast<std::uint32_t>(payload[7]) << 24);
      respond({kPidPositive});
      return;
    }
    case kCmdUpload: {
      if (payload.size() < 2 || payload[1] == 0 || payload[1] > 7) {
        error(kErrCmdSyntax);
        return;
      }
      std::vector<std::uint8_t> out = {kPidPositive};
      for (std::uint8_t i = 0; i < payload[1]; ++i) {
        const auto byte = memory_.read_byte(mta_ + i);
        if (!byte) {
          error(kErrOutOfRange);
          return;
        }
        out.push_back(*byte);
      }
      mta_ += payload[1];
      respond(std::move(out));
      return;
    }
    case kCmdShortUpload: {
      // CMD n res ext addr[4]
      if (payload.size() < 8 || payload[1] == 0 || payload[1] > 7) {
        error(kErrCmdSyntax);
        return;
      }
      const std::uint32_t address = static_cast<std::uint32_t>(payload[4]) |
                                    (static_cast<std::uint32_t>(payload[5]) << 8) |
                                    (static_cast<std::uint32_t>(payload[6]) << 16) |
                                    (static_cast<std::uint32_t>(payload[7]) << 24);
      std::vector<std::uint8_t> out = {kPidPositive};
      for (std::uint8_t i = 0; i < payload[1]; ++i) {
        const auto byte = memory_.read_byte(address + i);
        if (!byte) {
          error(kErrOutOfRange);
          return;
        }
        out.push_back(*byte);
      }
      mta_ = address + payload[1];
      respond(std::move(out));
      return;
    }
    case kCmdDownload: {
      // CMD n data[n]: writes n bytes at the MTA.  Deliberately no
      // authentication — the exploitable channel the paper warns about.
      if (payload.size() < 2 || payload[1] == 0 ||
          payload.size() < static_cast<std::size_t>(payload[1]) + 2) {
        error(kErrCmdSyntax);
        return;
      }
      for (std::uint8_t i = 0; i < payload[1]; ++i) {
        if (!memory_.write_byte(mta_ + i, payload[2 + i])) {
          error(kErrOutOfRange);
          return;
        }
        ++bytes_written_;
      }
      mta_ += payload[1];
      respond({kPidPositive});
      return;
    }
    default:
      error(kErrCmdUnknown);
  }
}

// ---------------------------------------------------------------- master --

XcpMaster::XcpMaster(std::uint32_t tx_id, std::uint32_t rx_id, SendFn send)
    : tx_id_(tx_id), rx_id_(rx_id), send_(std::move(send)) {}

void XcpMaster::handle_frame(const can::CanFrame& frame, sim::SimTime) {
  if (frame.id() != rx_id_ || frame.length() == 0) return;
  const auto payload = frame.payload();
  if (payload[0] == kPidPositive) {
    data_ = std::vector<std::uint8_t>(payload.begin() + 1, payload.end());
    error_.reset();
  } else if (payload[0] == kPidError && payload.size() >= 2) {
    error_ = payload[1];
    data_.reset();
  }
}

bool XcpMaster::send_command(std::vector<std::uint8_t> payload) {
  data_.reset();
  error_.reset();
  const auto frame = can::CanFrame::data(tx_id_, payload);
  return frame && send_(*frame);
}

bool XcpMaster::connect() { return send_command({kCmdConnect, 0x00}); }

bool XcpMaster::short_upload(std::uint32_t address, std::uint8_t length) {
  return send_command({kCmdShortUpload, length, 0, 0,
                       static_cast<std::uint8_t>(address & 0xFF),
                       static_cast<std::uint8_t>((address >> 8) & 0xFF),
                       static_cast<std::uint8_t>((address >> 16) & 0xFF),
                       static_cast<std::uint8_t>((address >> 24) & 0xFF)});
}

bool XcpMaster::set_mta(std::uint32_t address) {
  return send_command({kCmdSetMta, 0, 0, 0, static_cast<std::uint8_t>(address & 0xFF),
                       static_cast<std::uint8_t>((address >> 8) & 0xFF),
                       static_cast<std::uint8_t>((address >> 16) & 0xFF),
                       static_cast<std::uint8_t>((address >> 24) & 0xFF)});
}

bool XcpMaster::download(std::uint32_t, std::span<const std::uint8_t> data) {
  // Caller must SET_MTA first (kept explicit to mirror the wire protocol).
  if (data.empty() || data.size() > 5) return false;
  std::vector<std::uint8_t> payload = {kCmdDownload,
                                       static_cast<std::uint8_t>(data.size())};
  payload.insert(payload.end(), data.begin(), data.end());
  return send_command(std::move(payload));
}

std::optional<std::uint32_t> XcpMaster::as_u32(
    const std::optional<std::vector<std::uint8_t>>& data) {
  if (!data || data->size() < 4) return std::nullopt;
  return static_cast<std::uint32_t>((*data)[0]) |
         (static_cast<std::uint32_t>((*data)[1]) << 8) |
         (static_cast<std::uint32_t>((*data)[2]) << 16) |
         (static_cast<std::uint32_t>((*data)[3]) << 24);
}

}  // namespace acf::xcp
