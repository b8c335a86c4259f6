#include "fleet/remote/coordinator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "fleet/remote/checkpoint.hpp"
#include "util/file.hpp"

namespace acf::fleet::remote {

namespace {

/// A connection that never completes its handshake is dropped after this.
constexpr std::chrono::milliseconds kHandshakeTimeout{5'000};
/// Poll-loop tick; bounds failure-detection and checkpoint latency.
constexpr int kPollPeriodMs = 50;
/// Minimum interval between checkpoint writes (dirty state is also flushed
/// on exit).
constexpr std::chrono::milliseconds kCheckpointPeriod{1'000};

std::size_t clamp_capacity(std::uint32_t capacity) {
  if (capacity == 0) return 1;
  return std::min<std::size_t>(capacity, kMaxLeaseTrials);
}

/// True when `spec` is the plan's own spec for its trial index.  Results
/// and checkpointed outcomes both pass this before they reach the table.
bool matches_plan(const TrialPlan& plan, const TrialSpec& spec) {
  if (spec.trial_index >= plan.trial_count()) return false;
  const TrialSpec expected = plan.spec(spec.trial_index);
  return spec.arm == expected.arm && spec.replica == expected.replica &&
         spec.seed == expected.seed && spec.sim_budget == expected.sim_budget;
}

}  // namespace

/// One worker socket: framing state, pending output, handshake identity.
struct Coordinator::Connection {
  util::Fd fd;
  FrameReader reader;
  std::vector<std::uint8_t> out;  // frames not yet accepted by the kernel
  std::size_t out_sent = 0;
  std::uint64_t session = 0;  // 0 until the handshake completed
  std::size_t capacity = 1;   // from the latest LeaseRequest
  std::uint64_t instance_id = 0;  // from Hello; keys the metrics block
  bool handshaken = false;
  bool pending_request = false;  // asked for work while none was available
  bool closing = false;          // drain `out`, then drop (Rejected)
  bool half_closed = false;      // FIN sent; read side drains until EOF
  bool dead = false;
  WallClock::time_point connected_at{};
};

Coordinator::Coordinator(const TrialPlan& plan, CoordinatorConfig config)
    : plan_(plan),
      config_(std::move(config)),
      fingerprint_(campaign_fingerprint(plan, config_.world_tag)),
      table_(plan.trial_count()) {
  auto listener = util::TcpListener::listen_loopback(config_.port);
  if (!listener) throw std::runtime_error("coordinator: cannot bind loopback listener");
  listener_ = std::move(*listener);

  // Every slot starts as its skipped-state spec so an interrupted campaign
  // still returns a complete, index-ordered vector.
  outcomes_.resize(plan_.trial_count());
  for (std::size_t i = 0; i < outcomes_.size(); ++i) outcomes_[i].spec = plan_.spec(i);

  load_checkpoint();
  // Write the state back at once: a path that cannot be written fails the
  // campaign before it starts, not after it ran without the protection it
  // asked for.
  save_checkpoint(/*force=*/true);
  if (!config_.checkpoint_path.empty() && !checkpoint_saved()) {
    throw std::runtime_error("coordinator: cannot write campaign checkpoint: " +
                             config_.checkpoint_path);
  }
}

Coordinator::~Coordinator() = default;

void Coordinator::load_checkpoint() {
  if (config_.checkpoint_path.empty()) return;
  if (!std::filesystem::exists(config_.checkpoint_path)) return;
  std::optional<FleetCheckpoint> checkpoint = FleetCheckpoint::load(config_.checkpoint_path);
  const auto corrupt = [this] {
    return std::runtime_error("coordinator: corrupt campaign checkpoint: " +
                              config_.checkpoint_path);
  };
  if (!checkpoint) {
    // Name the format of a checkpoint an earlier build wrote.
    const auto bytes = util::read_file(config_.checkpoint_path);
    const std::optional<std::uint32_t> version =
        bytes ? FleetCheckpoint::version_of(*bytes) : std::nullopt;
    if (version && *version != FleetCheckpoint::kVersion) {
      throw std::runtime_error("coordinator: the campaign checkpoint " + config_.checkpoint_path +
                               " is format v" + std::to_string(*version) +
                               " and this build reads v" +
                               std::to_string(FleetCheckpoint::kVersion));
    }
    throw corrupt();
  }
  if (checkpoint->fingerprint != fingerprint_ ||
      checkpoint->trial_count != plan_.trial_count()) {
    throw std::runtime_error("coordinator: checkpoint belongs to a different campaign: " +
                             config_.checkpoint_path);
  }
  for (TrialOutcome& outcome : checkpoint->completed) {
    if (!matches_plan(plan_, outcome.spec)) throw corrupt();
    const std::size_t index = outcome.spec.trial_index;
    table_.mark_done(index);
    outcomes_[index] = std::move(outcome);
  }
  stats_.resumed_done = checkpoint->completed.size();
}

void Coordinator::save_checkpoint(bool force) {
  if (config_.checkpoint_path.empty()) return;
  const auto now = WallClock::now();
  if (!force && (!dirty_ || now - last_checkpoint_ < kCheckpointPeriod)) return;
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint_;
  checkpoint.trial_count = plan_.trial_count();
  checkpoint.completed.reserve(table_.done_count());
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (table_.state(i) == TrialState::kDone) checkpoint.completed.push_back(outcomes_[i]);
  }
  // A failed write leaves the state dirty, so checkpoint_saved() says so and
  // the next poll tick tries again.
  dirty_ = !checkpoint.save(config_.checkpoint_path);
  if (!dirty_) last_checkpoint_ = now;
}

void Coordinator::send_message(Connection& conn, const Message& message) {
  const std::vector<std::uint8_t> frame = frame_message(message);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush(conn);
}

void Coordinator::flush(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const auto result = util::socket_write(
        conn.fd.get(), std::span<const std::uint8_t>(conn.out).subspan(conn.out_sent));
    if (result.status == util::IoStatus::kOk) {
      conn.out_sent += result.bytes;
      continue;
    }
    if (result.status == util::IoStatus::kWouldBlock) return;
    drop(conn, /*count_disconnect=*/conn.handshaken);
    return;
  }
  conn.out.clear();
  conn.out_sent = 0;
  if (conn.closing) conn.dead = true;
}

void Coordinator::drop(Connection& conn, bool count_disconnect) {
  if (conn.dead) return;
  conn.dead = true;
  if (count_disconnect) ++stats_.workers_disconnected;
  if (conn.session != 0 && table_.release_worker(conn.session) > 0) pump_pending_grants();
}

void Coordinator::grant_to(Connection& conn) {
  const std::size_t batch = std::min(config_.max_batch, conn.capacity);
  std::optional<GrantedLease> lease =
      table_.grant(conn.session, std::max<std::size_t>(batch, 1), WallClock::now(),
                   config_.lease_ttl);
  if (!lease) {
    conn.pending_request = true;
    return;
  }
  conn.pending_request = false;
  LeaseGrantMsg grant;
  grant.lease_id = lease->lease_id;
  grant.trials.reserve(lease->trials.size());
  for (const std::size_t index : lease->trials) {
    grant.trials.push_back(static_cast<std::uint64_t>(index));
  }
  send_message(conn, Message{std::move(grant)});
}

void Coordinator::pump_pending_grants() {
  for (auto& conn : connections_) {
    if (!table_.work_available()) return;
    if (conn->dead || conn->closing || !conn->pending_request) continue;
    grant_to(*conn);
  }
}

void Coordinator::handle_payload(Connection& conn, std::span<const std::uint8_t> payload) {
  std::optional<Message> message = decode(payload);
  if (!message) {
    ++stats_.protocol_errors;
    drop(conn, /*count_disconnect=*/conn.handshaken);
    return;
  }

  if (const auto* hello = std::get_if<HelloMsg>(&*message)) {
    if (conn.handshaken) {
      ++stats_.protocol_errors;
      drop(conn, /*count_disconnect=*/true);
      return;
    }
    if (hello->protocol_version != kProtocolVersion) {
      ++stats_.workers_rejected;
      send_message(conn, Message{RejectedMsg{"protocol version mismatch"}});
      conn.closing = true;
      flush(conn);
      return;
    }
    if (hello->fingerprint != fingerprint_) {
      ++stats_.workers_rejected;
      send_message(conn, Message{RejectedMsg{"campaign fingerprint mismatch"}});
      conn.closing = true;
      flush(conn);
      return;
    }
    conn.session = next_session_++;
    // A raw client that sends no instance id gets its session as the key:
    // unique, so it never clobbers anyone, at the cost of double-counted
    // totals if that client reconnects and replays its history.
    conn.instance_id = hello->instance_id != 0 ? hello->instance_id : conn.session;
    conn.handshaken = true;
    ++stats_.workers_connected;
    WelcomeMsg welcome;
    welcome.fingerprint = fingerprint_;
    welcome.trial_count = plan_.trial_count();
    send_message(conn, Message{welcome});
    return;
  }

  if (!conn.handshaken) {
    ++stats_.protocol_errors;
    drop(conn, /*count_disconnect=*/false);
    return;
  }

  if (const auto* request = std::get_if<LeaseRequestMsg>(&*message)) {
    conn.capacity = clamp_capacity(request->capacity);
    grant_to(conn);
    return;
  }

  if (const auto* heartbeat = std::get_if<HeartbeatMsg>(&*message)) {
    if (heartbeat->lease_id != 0) table_.renew(heartbeat->lease_id, WallClock::now());
    note_worker_metrics(conn, *heartbeat);
    return;
  }

  if (auto* result = std::get_if<LeaseResultMsg>(&*message)) {
    if (!matches_plan(plan_, result->outcome.spec)) {
      ++stats_.forged_results;
      drop(conn, /*count_disconnect=*/true);
      return;
    }
    const std::size_t index = result->outcome.spec.trial_index;
    table_.renew(result->lease_id, WallClock::now());
    const CompletionResult completion = table_.complete(result->lease_id, index);
    if (completion == CompletionResult::kAccepted) {
      outcomes_[index] = std::move(result->outcome);
      dirty_ = true;
      if (progress_) progress_->record(outcomes_[index]);
      if (on_trial_done_) on_trial_done_(table_.done_count());
    } else if (completion == CompletionResult::kDuplicate) {
      // A stolen lease finished twice; same seed, identical bytes — first
      // arrival already owns the slot.
      if (progress_) progress_->record_duplicate();
    }
    return;
  }

  // Welcome / LeaseGrant / Shutdown / Rejected have no business arriving
  // from a worker.
  ++stats_.protocol_errors;
  drop(conn, /*count_disconnect=*/true);
}

void Coordinator::note_worker_metrics(const Connection& conn, const HeartbeatMsg& heartbeat) {
  if (!heartbeat.metrics || conn.instance_id == 0) return;
  // Full totals, replace-on-update keyed by the worker's instance id.  A
  // reconnecting worker (same id, fresh session) overwrites its previous
  // block — its registry survived the reconnect, so the new totals already
  // include the old.  Two workers carry distinct ids and keep separate
  // blocks.
  worker_metrics_[conn.instance_id] = *heartbeat.metrics;
}

metrics::RegistrySnapshot Coordinator::merged_metrics() {
  metrics::Registry merged;
  std::vector<metrics::MeterSnap> meters;
  if (config_.registry) {
    metrics::RegistrySnapshot own = config_.registry->snapshot();
    merged.absorb(own);
    meters = std::move(own.meters);
  }
  for (const auto& [instance, snap] : worker_metrics_) merged.absorb(snap);
  metrics::RegistrySnapshot view = merged.snapshot();
  view.meters = std::move(meters);
  return view;
}

std::vector<TrialOutcome> Coordinator::serve(ProgressReporter* progress) {
  progress_ = progress;
  if (progress_) progress_->begin(plan_.trial_count(), table_.done_count());

  util::PollSet poll;
  ShutdownReason shutdown_reason = ShutdownReason::kCampaignComplete;

  while (!table_.all_done()) {
    if (config_.stop_after_completed > 0 &&
        table_.done_count() >= config_.stop_after_completed) {
      shutdown_reason = ShutdownReason::kCoordinatorPausing;
      break;
    }

    poll.clear();
    const std::size_t listener_slot = poll.add(listener_.fd(), /*want_write=*/false);
    std::vector<std::pair<std::size_t, Connection*>> polled;
    polled.reserve(connections_.size());
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      polled.emplace_back(poll.add(conn->fd.get(), conn->out_sent < conn->out.size()),
                          conn.get());
    }
    poll.wait(kPollPeriodMs);

    if (poll.entry(listener_slot).readable) {
      while (std::optional<util::Fd> accepted = listener_.accept()) {
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(*accepted);
        conn->connected_at = WallClock::now();
        connections_.push_back(std::move(conn));
      }
    }

    for (auto& [slot, conn] : polled) {
      const util::PollEntry& entry = poll.entry(slot);
      if (entry.error) {
        drop(*conn, /*count_disconnect=*/conn->handshaken);
        continue;
      }
      if (entry.writable) flush(*conn);
      if (conn->dead || !(entry.readable || entry.hangup)) continue;
      // A worker's last results and heartbeat often arrive together with
      // its hang-up: decode everything buffered before closing.
      const bool hung_up = read_until_blocked(conn->fd.get(), conn->reader);
      while (!conn->dead && !conn->closing) {
        std::optional<std::vector<std::uint8_t>> payload = conn->reader.next();
        if (!payload) break;
        handle_payload(*conn, *payload);
      }
      if (conn->reader.poisoned() && !conn->dead) ++stats_.protocol_errors;
      if (conn->reader.poisoned() || hung_up) {
        drop(*conn, /*count_disconnect=*/conn->handshaken);
      }
    }

    const auto now = WallClock::now();
    if (table_.expire(now) > 0) pump_pending_grants();
    for (auto& conn : connections_) {
      if (!conn->dead && !conn->handshaken &&
          now - conn->connected_at > kHandshakeTimeout) {
        drop(*conn, /*count_disconnect=*/false);
      }
    }
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
      return conn->dead;
    });

    stats_.leases = table_.stats();
    if (progress_) {
      progress_->set_lease_counters(table_.outstanding(), stats_.leases.trials_stolen,
                                    stats_.leases.leases_expired);
      progress_->tick();
    }
    save_checkpoint(/*force=*/false);
  }

  // Orderly goodbye: every live worker hears why the stream is ending, so a
  // pausing coordinator does not look like a crash to the reconnect gate.
  for (auto& conn : connections_) {
    if (conn->dead || conn->closing) continue;
    send_message(*conn, Message{ShutdownMsg{shutdown_reason}});
  }

  // Linger instead of closing outright.  Each socket is half-closed once its
  // Shutdown frame is out — the FIN says "no more grants" while the read
  // side stays open to drain whatever the worker was mid-sending.  A full
  // close here races the worker's in-flight LeaseRequest or heartbeat: the
  // kernel answers a write-after-close with an RST that destroys the unread
  // Shutdown in the worker's receive buffer, stranding the worker in
  // reconnect against a finished campaign.  Stragglers that connect inside
  // the window are greeted with the same Shutdown as closure.  Results read
  // here are discarded — every result that mattered arrived before all_done
  // flipped, and a pausing coordinator's checkpoint re-issues the rest —
  // but heartbeats still land: a worker's last batch ends with a final
  // full-totals heartbeat that may race the all_done flip, and the merged
  // metrics view must not miss it.
  const auto linger_deadline = WallClock::now() + std::chrono::milliseconds(500);
  while (WallClock::now() < linger_deadline) {
    poll.clear();
    const std::size_t accept_slot = poll.add(listener_.fd(), /*want_write=*/false);
    std::vector<std::pair<std::size_t, Connection*>> draining;
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      if (conn->out_sent >= conn->out.size() && !conn->half_closed) {
        ::shutdown(conn->fd.get(), SHUT_WR);
        conn->half_closed = true;
      }
      draining.emplace_back(poll.add(conn->fd.get(), conn->out_sent < conn->out.size()),
                            conn.get());
    }
    if (draining.empty()) break;
    poll.wait(10);
    if (poll.entry(accept_slot).readable) {
      while (std::optional<util::Fd> accepted = listener_.accept()) {
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(*accepted);
        conn->connected_at = WallClock::now();
        send_message(*conn, Message{ShutdownMsg{shutdown_reason}});
        connections_.push_back(std::move(conn));  // half-closed next pass
      }
    }
    for (auto& [slot, conn] : draining) {
      const util::PollEntry& entry = poll.entry(slot);
      if (entry.error) {
        conn->dead = true;
        continue;
      }
      if (entry.writable) flush(*conn);
      if (conn->dead || !(entry.readable || entry.hangup)) continue;
      // Keep framing so the worker's final heartbeat parses, even when its
      // hang-up (it saw the Shutdown) arrived in the same read.  Poisoned
      // framing just ends the drain for this socket.
      const bool hung_up = read_until_blocked(conn->fd.get(), conn->reader);
      while (std::optional<std::vector<std::uint8_t>> payload = conn->reader.next()) {
        std::optional<Message> message = decode(*payload);
        if (!message) continue;
        if (const auto* heartbeat = std::get_if<HeartbeatMsg>(&*message)) {
          note_worker_metrics(*conn, *heartbeat);
        }
      }
      if (hung_up || conn->reader.poisoned()) conn->dead = true;
    }
  }
  connections_.clear();
  // Stop listening: a worker reconnecting after this point meets a refused
  // connection (bounded backoff, then give-up) rather than a listener whose
  // accept queue will never drain again.
  listener_ = util::TcpListener();

  stats_.leases = table_.stats();
  save_checkpoint(/*force=*/dirty_);
  progress_ = nullptr;
  return outcomes_;
}

}  // namespace acf::fleet::remote
