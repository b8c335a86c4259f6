#include "fleet/remote/worker.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/executor.hpp"
#include "fleet/remote/wire.hpp"
#include "metrics/metrics.hpp"
#include "util/socket.hpp"

namespace acf::fleet::remote {

namespace {

/// Handshake wait bound; a coordinator silent this long counts as a
/// connection failure.
constexpr std::chrono::milliseconds kIoTimeout{10'000};

/// Writes a whole frame on the (blocking) coordinator socket.
bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto result = util::socket_write(fd, bytes.subspan(sent));
    if (result.status == util::IoStatus::kOk) {
      sent += result.bytes;
      continue;
    }
    if (result.status == util::IoStatus::kWouldBlock) continue;
    return false;
  }
  return true;
}

enum class WaitStatus : std::uint8_t { kFrame, kTimeout, kDead };

struct WaitResult {
  WaitStatus status = WaitStatus::kDead;
  std::vector<std::uint8_t> payload;
};

/// Blocks until one complete frame arrives, the timeout lapses, or the
/// connection dies (EOF, error, poisoned framing).  Frames that arrived
/// before a hang-up are still handed out, one per call, before kDead.
WaitResult wait_frame(int fd, FrameReader& reader, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool hung_up = false;
  for (;;) {
    if (std::optional<std::vector<std::uint8_t>> payload = reader.next()) {
      return {WaitStatus::kFrame, std::move(*payload)};
    }
    if (reader.poisoned() || hung_up) return {WaitStatus::kDead, {}};
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return {WaitStatus::kTimeout, {}};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    util::PollSet poll;
    const std::size_t slot = poll.add(fd, /*want_write=*/false);
    poll.wait(static_cast<int>(std::clamp<std::int64_t>(left.count(), 1, 1000)));
    const util::PollEntry& entry = poll.entry(slot);
    if (entry.error) return {WaitStatus::kDead, {}};
    if (entry.readable || entry.hangup) hung_up = read_until_blocked(fd, reader);
  }
}

/// Feeds one granted batch into the trial pool.
class BatchSource final : public TrialSource {
 public:
  explicit BatchSource(std::vector<std::size_t> indices) : indices_(std::move(indices)) {}
  std::optional<std::size_t> next() override {
    const std::size_t at = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (at >= indices_.size()) return std::nullopt;
    return indices_[at];
  }

 private:
  std::vector<std::size_t> indices_;
  std::atomic<std::size_t> cursor_{0};
};

/// Streams each finished trial to the coordinator as a LeaseResult frame.
/// Pool threads and the heartbeat thread share the socket write mutex; a
/// failed send marks the connection dead and later pushes become no-ops —
/// the coordinator's lease expiry re-issues whatever never arrived.
class SocketSink final : public ResultSink {
 public:
  SocketSink(int fd, std::uint64_t lease_id, std::mutex& write_mutex,
             std::atomic<bool>& dead, std::atomic<std::size_t>& completed)
      : fd_(fd),
        lease_id_(lease_id),
        write_mutex_(write_mutex),
        dead_(dead),
        completed_(completed) {}

  void push(TrialOutcome outcome) override {
    LeaseResultMsg msg;
    msg.lease_id = lease_id_;
    msg.outcome = std::move(outcome);
    const std::vector<std::uint8_t> frame = frame_message(Message{std::move(msg)});
    completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (dead_.load(std::memory_order_relaxed)) return;
    if (!send_all(fd_, frame)) dead_.store(true, std::memory_order_relaxed);
  }

 private:
  int fd_;
  std::uint64_t lease_id_;
  std::mutex& write_mutex_;
  std::atomic<bool>& dead_;
  std::atomic<std::size_t>& completed_;
};

enum class SessionEnd : std::uint8_t { kComplete, kPaused, kRejected, kLost };

}  // namespace

namespace {

// Worker identity for the coordinator's metrics map and the reconnect
// gate's jitter seed.  Randomness (not the campaign seed) is correct here:
// the id must differ between two worker processes launched identically, so
// that they neither share a metrics block nor retry in lockstep, and it
// never feeds back into trial execution, so determinism of results is
// untouched.
std::uint64_t make_instance_id() {
  std::random_device rd;
  std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return id == 0 ? 1 : id;  // 0 is the wire's "not provided" sentinel
}

}  // namespace

Worker::Worker(const TrialPlan& plan, WorldFactory factory, WorkerConfig config)
    : plan_(plan),
      factory_(std::move(factory)),
      config_(std::move(config)),
      fingerprint_(campaign_fingerprint(plan_, config_.world_tag)),
      instance_id_(make_instance_id()) {}

WorkerResult Worker::run() {
  WorkerResult result;
  unsigned threads = config_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  ReconnectGate gate(instance_id_, config_.give_up_after);

  // One connected session: handshake, then lease-request / run-batch cycles
  // until the coordinator says goodbye or the link dies.
  const auto session = [&](int fd) -> SessionEnd {
    FrameReader reader;
    std::mutex write_mutex;

    HelloMsg hello;
    hello.fingerprint = fingerprint_;
    hello.instance_id = instance_id_;
    if (!send_all(fd, frame_message(Message{hello}))) return SessionEnd::kLost;

    WaitResult greeting = wait_frame(fd, reader, kIoTimeout);
    if (greeting.status != WaitStatus::kFrame) return SessionEnd::kLost;
    std::optional<Message> reply = decode(greeting.payload);
    if (!reply) return SessionEnd::kLost;
    if (const auto* rejected = std::get_if<RejectedMsg>(&*reply)) {
      result.message = rejected->reason;
      return SessionEnd::kRejected;
    }
    if (const auto* shutdown = std::get_if<ShutdownMsg>(&*reply)) {
      // Connected at the campaign's last instant: the coordinator greets
      // stragglers in its linger window with the Shutdown itself.
      return shutdown->reason == ShutdownReason::kCampaignComplete ? SessionEnd::kComplete
                                                                   : SessionEnd::kPaused;
    }
    const auto* welcome = std::get_if<WelcomeMsg>(&*reply);
    if (!welcome) return SessionEnd::kLost;
    if (welcome->fingerprint != fingerprint_ || welcome->trial_count != plan_.trial_count()) {
      // A coordinator that welcomes us into a different campaign is not a
      // transient fault; retrying would re-run the same mismatch forever.
      result.message = "welcome does not match this worker's campaign";
      return SessionEnd::kRejected;
    }
    gate.note_success();

    for (;;) {
      {
        LeaseRequestMsg request;
        request.capacity = threads;
        std::lock_guard<std::mutex> lock(write_mutex);
        if (!send_all(fd, frame_message(Message{request}))) return SessionEnd::kLost;
      }

      // Wait for a grant (or the campaign's end), keeping the link warm
      // with idle heartbeats while other workers hold all the leases.
      for (;;) {
        WaitResult wait = wait_frame(fd, reader, config_.heartbeat_period);
        if (wait.status == WaitStatus::kDead) return SessionEnd::kLost;
        if (wait.status == WaitStatus::kTimeout) {
          std::lock_guard<std::mutex> lock(write_mutex);
          if (!send_all(fd, frame_message(Message{HeartbeatMsg{}}))) return SessionEnd::kLost;
          continue;
        }
        std::optional<Message> message = decode(wait.payload);
        if (!message) return SessionEnd::kLost;
        if (const auto* shutdown = std::get_if<ShutdownMsg>(&*message)) {
          return shutdown->reason == ShutdownReason::kCampaignComplete
                     ? SessionEnd::kComplete
                     : SessionEnd::kPaused;
        }
        const auto* grant = std::get_if<LeaseGrantMsg>(&*message);
        if (!grant) return SessionEnd::kLost;  // coordinator spoke worker-talk

        std::vector<std::size_t> indices;
        indices.reserve(grant->trials.size());
        for (const std::uint64_t trial : grant->trials) {
          if (trial >= plan_.trial_count()) return SessionEnd::kLost;
          indices.push_back(static_cast<std::size_t>(trial));
        }

        std::atomic<bool> link_dead{false};
        std::atomic<std::size_t> completed{0};
        BatchSource source(std::move(indices));
        SocketSink sink(fd, grant->lease_id, write_mutex, link_dead, completed);

        // Heartbeat side-thread: a single long trial must not look like a
        // dead worker to the coordinator's lease-expiry detector.
        std::atomic<bool> batch_done{false};
        std::mutex hb_mutex;
        std::condition_variable hb_cv;
        const auto send_heartbeat = [&] {
          HeartbeatMsg beat;
          beat.lease_id = grant->lease_id;
          if (config_.registry) {
            // Full running totals every beat: idempotent under reconnect,
            // because the coordinator replaces this worker's block instead
            // of adding to it.
            beat.metrics = config_.registry->snapshot();
          }
          const std::vector<std::uint8_t> frame = frame_message(Message{std::move(beat)});
          std::lock_guard<std::mutex> lock(write_mutex);
          if (link_dead.load(std::memory_order_relaxed)) return;
          if (!send_all(fd, frame)) link_dead.store(true, std::memory_order_relaxed);
        };
        std::thread heartbeat([&] {
          std::unique_lock<std::mutex> hb_lock(hb_mutex);
          while (!hb_cv.wait_for(hb_lock, config_.heartbeat_period,
                                 [&] { return batch_done.load(std::memory_order_relaxed); })) {
            send_heartbeat();
          }
        });

        const auto pool_threads =
            static_cast<unsigned>(std::min<std::size_t>(threads, grant->trials.size()));
        run_trial_pool(plan_, factory_, source, sink, {pool_threads, config_.registry});

        {
          std::lock_guard<std::mutex> hb_lock(hb_mutex);
          batch_done.store(true, std::memory_order_relaxed);
        }
        hb_cv.notify_all();
        heartbeat.join();
        // Final totals for the batch, after every pool thread has joined:
        // the coordinator's merged view catches up even when the batch
        // finished between two periodic beats.
        if (config_.registry) send_heartbeat();

        result.trials_run += completed.load();
        ++result.leases_served;
        if (link_dead.load(std::memory_order_relaxed)) return SessionEnd::kLost;
        break;  // batch delivered; ask for the next one
      }
    }
  };

  for (;;) {
    const std::optional<std::chrono::microseconds> delay = gate.next_delay();
    if (!delay) {
      result.exit = WorkerExit::kGaveUp;
      result.message = "reconnect gate exhausted";
      break;
    }
    std::this_thread::sleep_for(*delay);

    std::optional<util::Fd> fd = util::tcp_connect(config_.host, config_.port);
    if (!fd) {
      gate.note_failure();
      continue;
    }
    const SessionEnd end = session(fd->get());
    if (end == SessionEnd::kComplete) {
      result.exit = WorkerExit::kCampaignComplete;
      break;
    }
    if (end == SessionEnd::kPaused) {
      result.exit = WorkerExit::kCoordinatorPaused;
      break;
    }
    if (end == SessionEnd::kRejected) {
      result.exit = WorkerExit::kRejected;
      break;
    }
    gate.note_failure();  // SessionEnd::kLost: back through the gate
  }

  result.reconnect = gate.stats();
  return result;
}

}  // namespace acf::fleet::remote
