// Worker: the client side of the distributed campaign service.  It rebuilds
// the trial plan and world factory from its own configuration (only the
// campaign fingerprint crosses the wire — worlds are code, not data),
// connects to the coordinator through a ReconnectGate (jittered backoff and
// a circuit breaker on the wall clock), and then pulls lease batches:
// request, receive a grant, run the batch on the shared run_trial_pool()
// seam, stream one LeaseResult per finished trial.
// A heartbeat side-thread keeps the lease alive through long trials; a lost
// connection sends the worker back through the gate, and trials whose
// results never reached the coordinator are simply re-leased — the
// coordinator deduplicates, the seed makes reruns byte-identical.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "fleet/remote/reconnect.hpp"
#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::fleet::remote {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Trial pool threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Must match the coordinator's world tag (campaign fingerprint input).
  std::string world_tag = "unlock";
  /// Consecutive connection failures before run() gives up; 0 = never.
  std::uint32_t give_up_after = 30;
  /// Lease-liveness heartbeat cadence while a batch is running (and the
  /// idle keepalive cadence while waiting for a grant).
  std::chrono::milliseconds heartbeat_period{1'000};
  /// When set, trials record into this registry and every batch heartbeat
  /// ships the FULL running totals to the coordinator (replace-on-update,
  /// so reconnects never double count).  Must outlive run().
  metrics::Registry* registry = nullptr;
};

enum class WorkerExit : std::uint8_t {
  kCampaignComplete,   // coordinator sent Shutdown(kCampaignComplete)
  kCoordinatorPaused,  // coordinator sent Shutdown(kCoordinatorPausing)
  kRejected,           // handshake refused: wrong version or campaign
  kGaveUp,             // reconnect gate exhausted
};

struct WorkerResult {
  WorkerExit exit = WorkerExit::kGaveUp;
  /// Trials this worker completed and reported (duplicates included: a
  /// stolen lease this worker finished late still ran here).
  std::size_t trials_run = 0;
  std::uint64_t leases_served = 0;
  ReconnectStats reconnect;
  std::string message;  // human-readable exit detail (Rejected reason etc.)
};

class Worker {
 public:
  Worker(const TrialPlan& plan, WorldFactory factory, WorkerConfig config);

  /// Runs until the coordinator ends the campaign, the handshake is
  /// refused, or the reconnect gate gives up.
  WorkerResult run();

 private:
  const TrialPlan& plan_;
  WorldFactory factory_;
  WorkerConfig config_;
  std::uint64_t fingerprint_;
  /// Sent in Hello; stable across reconnects (the Worker object and its
  /// registry survive the reconnect gate), unique across worker processes.
  /// Also the gate's jitter seed.
  std::uint64_t instance_id_;
};

}  // namespace acf::fleet::remote
