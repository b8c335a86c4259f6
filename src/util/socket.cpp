#include "util/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace acf::util {

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

IoResult socket_read(int fd, std::span<std::uint8_t> buffer) noexcept {
  if (buffer.empty()) return {IoStatus::kOk, 0};
  for (;;) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
    if (n > 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (n == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {IoStatus::kWouldBlock, 0};
    return {IoStatus::kError, 0};
  }
}

IoResult socket_write(int fd, std::span<const std::uint8_t> buffer) noexcept {
  if (buffer.empty()) return {IoStatus::kOk, 0};
  for (;;) {
    const ssize_t n = ::send(fd, buffer.data(), buffer.size(), MSG_NOSIGNAL);
    if (n >= 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {IoStatus::kWouldBlock, 0};
    return {IoStatus::kError, 0};
  }
}

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::optional<TcpListener> TcpListener::listen_loopback(std::uint16_t port, int backlog) {
  // CLOEXEC everywhere: the coordinator forks worker processes, and a
  // listener leaked into a worker keeps the port alive after the
  // coordinator dies — reconnecting workers then block forever on a socket
  // nobody will ever accept, instead of being refused and giving up.
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    return std::nullopt;
  }
  if (::listen(fd.get(), backlog) != 0) return std::nullopt;
  if (!set_nonblocking(fd.get())) return std::nullopt;

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return std::nullopt;
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<Fd> TcpListener::accept() noexcept {
  for (;;) {
    const int client = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) {
      Fd fd(client);
      if (!set_nonblocking(fd.get())) return std::nullopt;
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // EAGAIN and hard errors alike: nothing accepted
  }
}

std::optional<Fd> tcp_connect(const std::string& host, std::uint16_t port) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return std::nullopt;

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return std::nullopt;
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    return std::nullopt;
  }
}

std::size_t PollSet::add(int fd, bool want_write) {
  PollEntry entry;
  entry.fd = fd;
  entry.want_write = want_write;
  entries_.push_back(entry);
  return entries_.size() - 1;
}

bool PollSet::wait(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(entries_.size());
  for (const PollEntry& entry : entries_) {
    pollfd pfd{};
    pfd.fd = entry.fd;
    pfd.events = POLLIN | (entry.want_write ? POLLOUT : 0);
    fds.push_back(pfd);
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].readable = (fds[i].revents & POLLIN) != 0;
    entries_[i].writable = (fds[i].revents & POLLOUT) != 0;
    entries_[i].hangup = (fds[i].revents & POLLHUP) != 0;
    entries_[i].error = (fds[i].revents & (POLLERR | POLLNVAL)) != 0;
  }
  return true;
}

}  // namespace acf::util
