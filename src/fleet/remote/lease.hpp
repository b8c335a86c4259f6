// LeaseTable: the coordinator's ownership ledger over the trial index
// space.  Every trial is Unissued, Leased (owned by one worker under a
// deadline) or Done; leases are granted in trial-index order, renewed by
// any activity from their worker, and — the crash-tolerance core — expired
// leases hand their unfinished trials straight back to the issue queue so
// the next hungry worker steals them.  Completions are deduplicated by
// trial index (equivalently (arm, replica, seed): the spec is a pure
// function of the index) so a slow worker finishing a stolen batch cannot
// double-count a trial.
//
// A restored table (checkpoint resume) marks the finished trials Done and
// issues the rest in ascending index order.  That already puts the trials
// that were in flight at save time first: leases go out in index order, so
// every trial in flight had a lower index than every trial never issued.
//
// The table is plain single-threaded state; the coordinator's poll loop is
// its only caller.  Wall-clock enters only through the `now` arguments —
// deadlines never touch trial outcomes, so campaign output stays a pure
// function of the plan.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace acf::fleet::remote {

using WallClock = std::chrono::steady_clock;

enum class TrialState : std::uint8_t { kUnissued, kLeased, kDone };

struct GrantedLease {
  std::uint64_t lease_id = 0;
  std::vector<std::size_t> trials;
};

enum class CompletionResult : std::uint8_t {
  kAccepted,   // first completion of this trial
  kDuplicate,  // trial already Done (stolen lease finished twice)
  kBadIndex,   // index outside the plan
};

struct LeaseStats {
  std::uint64_t leases_issued = 0;
  std::uint64_t leases_expired = 0;    // reclaimed by the failure detector
  std::uint64_t leases_released = 0;   // reclaimed on worker disconnect
  std::uint64_t trials_stolen = 0;     // re-issued after a reclaim
  std::uint64_t duplicate_completions = 0;
};

class LeaseTable {
 public:
  explicit LeaseTable(std::size_t trial_count);

  /// Marks a trial Done without an owning lease (checkpoint restore).
  void mark_done(std::size_t index);

  /// Grants up to `max_trials` unissued trials to `worker`.  nullopt when
  /// nothing is available (all remaining trials are leased or done).
  std::optional<GrantedLease> grant(std::uint64_t worker, std::size_t max_trials,
                                    WallClock::time_point now,
                                    std::chrono::milliseconds ttl);

  /// Folds one completion in.  `lease_id` may be stale or unknown — the
  /// trial index is authoritative; the lease, when alive, just sheds the
  /// trial from its remaining set.
  CompletionResult complete(std::uint64_t lease_id, std::size_t index);

  /// Renews the deadline of a live lease (heartbeat / result activity).
  void renew(std::uint64_t lease_id, WallClock::time_point now);

  /// Reclaims every lease past its deadline; unfinished trials return to
  /// the front of the issue queue.  Returns the number of leases expired.
  std::size_t expire(WallClock::time_point now);

  /// Reclaims every lease owned by `worker` (disconnect / crash detected
  /// at the socket).  Returns the number of leases released.
  std::size_t release_worker(std::uint64_t worker);

  bool all_done() const noexcept { return done_ == states_.size(); }
  std::size_t done_count() const noexcept { return done_; }
  std::size_t outstanding() const noexcept { return leases_.size(); }
  bool work_available() const noexcept { return !queue_.empty(); }
  TrialState state(std::size_t index) const { return states_.at(index); }
  const LeaseStats& stats() const noexcept { return stats_; }

 private:
  struct Lease {
    std::uint64_t worker = 0;
    WallClock::time_point deadline{};
    std::chrono::milliseconds ttl{0};
    std::vector<std::size_t> remaining;
  };

  void reclaim(Lease& lease, std::uint64_t& stolen_counter);

  std::vector<TrialState> states_;
  std::deque<std::size_t> queue_;  // issue order; front = next to grant
  std::unordered_map<std::uint64_t, Lease> leases_;
  std::vector<bool> ever_leased_;  // a re-issue of one of these is a steal
  std::size_t done_ = 0;
  std::uint64_t next_lease_id_ = 1;
  LeaseStats stats_;
};

}  // namespace acf::fleet::remote
