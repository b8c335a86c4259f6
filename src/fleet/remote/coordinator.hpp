// Coordinator: the server side of the distributed campaign service.  One
// poll loop owns the listen socket, every worker connection, the lease
// table and the campaign checkpoint:
//
//   worker connects -> Hello (protocol version + campaign fingerprint +
//     instance id) -> Welcome (fingerprint + trial count) | Rejected
//   worker sends LeaseRequest (its capacity) -> LeaseGrant (a lease id and
//     a batch of trial indices) when work is available, else queued until a
//     lease is reclaimed
//   worker streams LeaseResult per finished trial; results are validated
//     against the plan's spec for that index, deduplicated by trial index,
//     and merged in trial-index order at the end — identical bytes to the
//     in-process executor path
//   heartbeats (and results) renew the lease deadline, which stays on this
//     side; a closed socket releases a worker's leases at once, and a worker
//     that stays connected but silent past the deadline loses them to expiry;
//     either way the unfinished trials go to whoever asks next
//     (work-stealing)
//
// Progress persists through FleetCheckpoint (write-then-rename), so a
// coordinator killed mid-campaign resumes without recomputing finished
// trials.  The checkpoint holds the finished trials alone; the resumed lease
// table re-issues the rest in index order, the ones in flight first.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/progress.hpp"
#include "fleet/remote/lease.hpp"
#include "fleet/remote/wire.hpp"
#include "fleet/trial_plan.hpp"
#include "util/socket.hpp"

namespace acf::fleet::remote {

struct CoordinatorConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Trials per lease, capped by the worker's advertised capacity.
  std::size_t max_batch = 8;
  /// Silence (no result, no heartbeat) after which a lease is stolen.
  std::chrono::milliseconds lease_ttl{10'000};
  /// Campaign checkpoint path; empty disables persistence.
  std::string checkpoint_path;
  /// Must match the workers' world tag: part of the campaign fingerprint.
  std::string world_tag = "unlock";
  /// Test/ops hook: save a checkpoint and return once this many trials have
  /// completed (0 = run to the end).  Models a coordinator crash for the
  /// resume path without actually calling abort().
  std::size_t stop_after_completed = 0;
  /// Coordinator-side registry (progress/lease instruments land here via
  /// the ProgressReporter built on it); merged with the per-worker heartbeat
  /// blocks by merged_metrics().  Optional.
  metrics::Registry* registry = nullptr;
};

struct CoordinatorStats {
  LeaseStats leases;
  std::uint64_t workers_connected = 0;
  std::uint64_t workers_disconnected = 0;
  std::uint64_t workers_rejected = 0;
  std::uint64_t protocol_errors = 0;  // poisoned framing / malformed payload
  std::uint64_t forged_results = 0;   // spec mismatch vs the plan
  std::size_t resumed_done = 0;       // trials restored from the checkpoint
};

class Coordinator {
 public:
  /// Binds and listens immediately (so port() is valid before serve()),
  /// loads the checkpoint when one exists at config.checkpoint_path, and
  /// writes it there at once.  Throws std::runtime_error when the socket
  /// cannot be bound, the checkpoint cannot be written, is in another format
  /// version, is corrupt (a stored spec that differs from the plan's
  /// included) or belongs to a different campaign.
  Coordinator(const TrialPlan& plan, CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Runs the campaign service until every trial completed (or the
  /// stop_after hook fires).  Returns one outcome per trial in
  /// trial-index order; unfinished trials are TrialStatus::kSkipped.  A
  /// `progress` reporter is begun, records every accepted result and ticks
  /// from the poll loop; its finish() is the caller's, after the linger
  /// window has drained the workers' last heartbeats.
  std::vector<TrialOutcome> serve(ProgressReporter* progress = nullptr);

  const CoordinatorStats& stats() const noexcept { return stats_; }
  std::size_t done_count() const noexcept { return table_.done_count(); }
  /// After serve(): true when the checkpoint file holds every result, false
  /// when its final write failed (a missing directory, a full disk).
  bool checkpoint_saved() const noexcept { return !config_.checkpoint_path.empty() && !dirty_; }

  /// Observer invoked (on the serve() thread) after each accepted result —
  /// the worker-kill smoke uses it to injure the fleet at a precise point.
  void set_on_trial_done(std::function<void(std::size_t done)> hook) {
    on_trial_done_ = std::move(hook);
  }

  /// Fleet-wide metrics view: the coordinator's own registry and the latest
  /// full-totals block each worker shipped in its heartbeats (keyed by
  /// instance id; replace-on-update, so reconnects and repeated totals never
  /// double count), absorbed in that order into a fresh Registry.  The
  /// meters are the coordinator's own: absorb skips meters, and the wire
  /// carries none.  Call after serve() for the final campaign view.
  metrics::RegistrySnapshot merged_metrics();

 private:
  struct Connection;

  void load_checkpoint();
  void save_checkpoint(bool force);
  void handle_payload(Connection& conn, std::span<const std::uint8_t> payload);
  void grant_to(Connection& conn);
  void pump_pending_grants();
  void send_message(Connection& conn, const Message& message);
  void flush(Connection& conn);
  void drop(Connection& conn, bool count_disconnect);
  void note_worker_metrics(const Connection& conn, const HeartbeatMsg& heartbeat);

  const TrialPlan& plan_;
  CoordinatorConfig config_;
  std::uint64_t fingerprint_;
  util::TcpListener listener_;
  LeaseTable table_;
  std::vector<TrialOutcome> outcomes_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_session_ = 1;
  ProgressReporter* progress_ = nullptr;  // valid only inside serve()
  bool dirty_ = false;                    // progress not yet checkpointed
  WallClock::time_point last_checkpoint_{};
  CoordinatorStats stats_;
  std::function<void(std::size_t)> on_trial_done_;
  /// Latest full-totals metrics block per worker, keyed by the instance id
  /// from Hello (replace-on-update).  The id is unique per worker process
  /// and stable across its reconnects, so a reconnect replaces its own
  /// block while two workers never clobber each other.
  std::map<std::uint64_t, metrics::RegistrySnapshot> worker_metrics_;
};

}  // namespace acf::fleet::remote
