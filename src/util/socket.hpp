// Minimal POSIX TCP helpers for the distributed fleet: an RAII descriptor,
// a loopback-friendly listener, connect, and chunked nonblocking I/O with
// explicit would-block/closed outcomes.  Everything is plain sockets — no
// event library — because the coordinator's poll loop and the worker's
// single connection need nothing more, and a dependency-free transport is
// what lets the campaign service run anywhere the fuzzer builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace acf::util {

/// Owning file descriptor; closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Outcome of one nonblocking read/write step.
enum class IoStatus : std::uint8_t {
  kOk,          // made progress; `bytes` says how much
  kWouldBlock,  // no progress right now; retry after poll
  kClosed,      // orderly shutdown by the peer
  kError,       // hard socket error; connection is dead
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;
};

/// Reads once into `buffer`; never blocks (MSG_DONTWAIT), even on a blocking
/// socket.
IoResult socket_read(int fd, std::span<std::uint8_t> buffer) noexcept;

/// Writes once from `buffer` (MSG_NOSIGNAL: a dead peer yields kError, not
/// SIGPIPE); never blocks on a nonblocking socket.
IoResult socket_write(int fd, std::span<const std::uint8_t> buffer) noexcept;

bool set_nonblocking(int fd) noexcept;

/// TCP listener bound to 127.0.0.1 (the fleet's single-machine default;
/// cross-machine deployments front it with their own tunnel or firewall).
/// `port` 0 picks an ephemeral port, readable via port().
class TcpListener {
 public:
  static std::optional<TcpListener> listen_loopback(std::uint16_t port,
                                                    int backlog = 16);

  std::uint16_t port() const noexcept { return port_; }
  int fd() const noexcept { return fd_.get(); }

  /// Accepts one pending connection (nonblocking, already set nonblocking);
  /// nullopt when none is waiting.
  std::optional<Fd> accept() noexcept;

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Blocking connect to host:port; nullopt on failure.  The returned socket
/// is left in blocking mode; callers flip it with set_nonblocking as needed.
std::optional<Fd> tcp_connect(const std::string& host, std::uint16_t port) noexcept;

/// One registered descriptor of a PollSet cycle.
struct PollEntry {
  int fd = -1;
  bool want_write = false;  // always polls for readability
  bool readable = false;
  bool writable = false;
  /// The peer hung up.  Bytes it sent first may still be buffered: read and
  /// decode them before closing.
  bool hangup = false;
  bool error = false;  // ERR / NVAL
};

/// Thin wrapper over ::poll for the coordinator loop: register descriptors
/// each cycle, wait, then inspect the flags poll filled in.
class PollSet {
 public:
  void clear() { entries_.clear(); }
  /// Returns the index of the registered entry.
  std::size_t add(int fd, bool want_write);
  /// Waits up to `timeout_ms`; returns false on poll() failure.
  bool wait(int timeout_ms);
  const PollEntry& entry(std::size_t index) const { return entries_.at(index); }

 private:
  std::vector<PollEntry> entries_;
};

}  // namespace acf::util
