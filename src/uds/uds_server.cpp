#include "uds/uds_server.hpp"

namespace acf::uds {

namespace {
/// Security level (odd sub-function value for requestSeed).
constexpr std::uint8_t kSecurityLevel = 0x01;
constexpr std::uint8_t kMaxKeyAttempts = 3;
/// Penalty delay after exhausting attempts before a new seed is issued.
constexpr sim::Duration kLockoutDelay = std::chrono::seconds(10);
/// S3: inactivity timeout that drops a non-default session (and relocks).
constexpr sim::Duration kS3Timeout = std::chrono::seconds(5);
constexpr std::uint64_t kSeedRng = 0x5eedULL;
}  // namespace

UdsServer::UdsServer(sim::Scheduler& scheduler) : scheduler_(scheduler), rng_(kSeedRng) {}

void UdsServer::handle_request(std::span<const std::uint8_t> request,
                               const SendResponseFn& respond) {
  ++stats_.requests;
  if (request.empty()) return;
  std::vector<std::uint8_t> response = dispatch(request);
  if (response.empty()) return;  // suppressed (e.g. TesterPresent 0x80 bit)
  if (response[0] == kNegativeResponse) {
    ++stats_.negative_responses;
  } else {
    ++stats_.positive_responses;
  }
  respond(std::move(response));
}

std::vector<std::uint8_t> UdsServer::dispatch(std::span<const std::uint8_t> request) {
  const std::uint8_t sid = request[0];
  // SIDs 0x01..0x0F are legacy OBD-II modes handled by a J1979 stack that
  // may share the diagnostic id pair; stay silent so the two stacks never
  // both answer one request.
  if (sid <= 0x0F) return {};
  touch_s3_timer();
  switch (sid) {
    case kSidDiagnosticSessionControl: return handle_session_control(request);
    case kSidEcuReset: return handle_ecu_reset(request);
    case kSidReadDataByIdentifier: return handle_read_did(request);
    case kSidWriteDataByIdentifier: return handle_write_did(request);
    case kSidSecurityAccess: return handle_security_access(request);
    case kSidTesterPresent: return handle_tester_present(request);
    case kSidReadDtcInformation: return handle_read_dtc(request);
    default: return negative(sid, kNrcServiceNotSupported);
  }
}

std::vector<std::uint8_t> UdsServer::negative(std::uint8_t sid, std::uint8_t nrc) {
  return {kNegativeResponse, sid, nrc};
}

std::vector<std::uint8_t> UdsServer::handle_session_control(
    std::span<const std::uint8_t> request) {
  if (request.size() != 2) return negative(request[0], kNrcIncorrectLength);
  const std::uint8_t sub = request[1] & 0x7F;
  if (sub != static_cast<std::uint8_t>(Session::kDefault) &&
      sub != static_cast<std::uint8_t>(Session::kProgramming) &&
      sub != static_cast<std::uint8_t>(Session::kExtended)) {
    return negative(request[0], kNrcSubFunctionNotSupported);
  }
  session_ = static_cast<Session>(sub);
  if (session_ == Session::kDefault) {
    security_ = SecurityState::kLocked;  // leaving diag session relocks
    failed_attempts_ = 0;
  }
  touch_s3_timer();
  // Positive response carries the P2/P2* timing parameters (representative
  // constants: 50 ms / 5000 ms).
  return {static_cast<std::uint8_t>(request[0] + 0x40), request[1], 0x00, 0x32, 0x01, 0xF4};
}

std::vector<std::uint8_t> UdsServer::handle_ecu_reset(std::span<const std::uint8_t> request) {
  if (request.size() != 2) return negative(request[0], kNrcIncorrectLength);
  const std::uint8_t sub = request[1] & 0x7F;
  if (sub != 0x01 && sub != 0x02 && sub != 0x03) {
    return negative(request[0], kNrcSubFunctionNotSupported);
  }
  ++stats_.resets;
  reset_state();
  if (reset_handler_) reset_handler_();
  return {static_cast<std::uint8_t>(request[0] + 0x40), request[1]};
}

std::vector<std::uint8_t> UdsServer::handle_read_did(std::span<const std::uint8_t> request) {
  if (request.size() != 3) return negative(request[0], kNrcIncorrectLength);
  const std::uint16_t did = static_cast<std::uint16_t>((request[1] << 8) | request[2]);
  const auto it = dids_.find(did);
  if (it == dids_.end()) return negative(request[0], kNrcRequestOutOfRange);
  std::vector<std::uint8_t> response = {static_cast<std::uint8_t>(request[0] + 0x40),
                                        request[1], request[2]};
  const std::vector<std::uint8_t>& value = it->second.value();
  response.insert(response.end(), value.begin(), value.end());
  return response;
}

std::vector<std::uint8_t> UdsServer::handle_write_did(std::span<const std::uint8_t> request) {
  if (request.size() < 4) return negative(request[0], kNrcIncorrectLength);
  const std::uint16_t did = static_cast<std::uint16_t>((request[1] << 8) | request[2]);
  const auto it = dids_.find(did);
  if (it == dids_.end() || !it->second.writable) {
    return negative(request[0], kNrcRequestOutOfRange);
  }
  if (session_ == Session::kDefault) return negative(request[0], kNrcConditionsNotCorrect);
  if (it->second.write_needs_unlock && security_ != SecurityState::kUnlocked) {
    return negative(request[0], kNrcSecurityAccessDenied);
  }
  it->second.written.assign(request.begin() + 3, request.end());
  it->second.overwritten = true;
  return {static_cast<std::uint8_t>(request[0] + 0x40), request[1], request[2]};
}

std::vector<std::uint8_t> UdsServer::handle_security_access(
    std::span<const std::uint8_t> request) {
  if (request.size() < 2) return negative(request[0], kNrcIncorrectLength);
  if (session_ == Session::kDefault) return negative(request[0], kNrcConditionsNotCorrect);
  const std::uint8_t sub = request[1] & 0x7F;
  constexpr std::uint8_t seed_sub = kSecurityLevel;
  constexpr auto key_sub = static_cast<std::uint8_t>(kSecurityLevel + 1);

  if (sub == seed_sub) {
    if (request.size() != 2) return negative(request[0], kNrcIncorrectLength);
    if (scheduler_.now() < lockout_until_) {
      return negative(request[0], kNrcTimeDelayNotExpired);
    }
    if (security_ == SecurityState::kUnlocked) {
      // Already unlocked: spec says return an all-zero seed.
      return {static_cast<std::uint8_t>(request[0] + 0x40), request[1], 0, 0, 0, 0};
    }
    for (auto& byte : pending_seed_) byte = rng_.next_byte();
    security_ = SecurityState::kSeedIssued;
    std::vector<std::uint8_t> response = {static_cast<std::uint8_t>(request[0] + 0x40),
                                          request[1]};
    response.insert(response.end(), pending_seed_.begin(), pending_seed_.end());
    return response;
  }
  if (sub == key_sub) {
    if (security_ != SecurityState::kSeedIssued) {
      return negative(request[0], kNrcRequestSequenceError);
    }
    if (request.size() != 2 + pending_seed_.size()) {
      return negative(request[0], kNrcIncorrectLength);
    }
    if (verify_key(algorithm_, pending_seed_, request.subspan(2))) {
      security_ = SecurityState::kUnlocked;
      failed_attempts_ = 0;
      ++stats_.unlocks;
      return {static_cast<std::uint8_t>(request[0] + 0x40), request[1]};
    }
    ++stats_.failed_key_attempts;
    security_ = SecurityState::kLocked;
    if (++failed_attempts_ >= kMaxKeyAttempts) {
      failed_attempts_ = 0;
      lockout_until_ = scheduler_.now() + kLockoutDelay;
      return negative(request[0], kNrcExceededAttempts);
    }
    return negative(request[0], kNrcInvalidKey);
  }
  return negative(request[0], kNrcSubFunctionNotSupported);
}

std::vector<std::uint8_t> UdsServer::handle_tester_present(
    std::span<const std::uint8_t> request) {
  if (request.size() != 2) return negative(request[0], kNrcIncorrectLength);
  touch_s3_timer();
  if ((request[1] & 0x80) != 0) return {};  // suppressPosRspMsgIndication
  return {static_cast<std::uint8_t>(request[0] + 0x40), request[1]};
}

std::vector<std::uint8_t> UdsServer::handle_read_dtc(std::span<const std::uint8_t> request) {
  if (request.size() < 2) return negative(request[0], kNrcIncorrectLength);
  const std::uint8_t sub = request[1];
  if (sub != 0x02) return negative(request[0], kNrcSubFunctionNotSupported);
  std::vector<std::uint8_t> response = {static_cast<std::uint8_t>(request[0] + 0x40), sub,
                                        0xFF};  // availability mask
  if (dtc_provider_) {
    const auto dtcs = dtc_provider_();
    response.insert(response.end(), dtcs.begin(), dtcs.end());
  }
  return response;
}

void UdsServer::set_did(std::uint16_t did, std::vector<std::uint8_t> value, bool writable,
                        bool write_needs_unlock) {
  dids_[did] = DidEntry{std::move(value), {}, false, writable, write_needs_unlock};
}

const std::vector<std::uint8_t>* UdsServer::did_value(std::uint16_t did) const {
  const auto it = dids_.find(did);
  return it == dids_.end() ? nullptr : &it->second.value();
}

void UdsServer::reset_state() {
  session_ = Session::kDefault;
  security_ = SecurityState::kLocked;
  failed_attempts_ = 0;
  scheduler_.cancel(s3_timer_);
  s3_timer_ = {};
}

void UdsServer::reset() {
  reset_state();
  lockout_until_ = sim::SimTime{0};
  rng_ = util::Rng(kSeedRng);
  stats_ = UdsServerStats{};
  for (auto& [did, entry] : dids_) entry.overwritten = false;
}

void UdsServer::touch_s3_timer() {
  scheduler_.cancel(s3_timer_);
  if (session_ == Session::kDefault) return;
  s3_timer_ = scheduler_.schedule_after(kS3Timeout, [this] {
    session_ = Session::kDefault;
    security_ = SecurityState::kLocked;
  });
}

}  // namespace acf::uds
