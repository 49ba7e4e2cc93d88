#include "mtsched/core/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "mtsched/core/error.hpp"

namespace mtsched::core::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

in_addr parse_host(const std::string& host) {
  in_addr addr{};
  const std::string resolved =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr) != 1) {
    throw InvalidArgument("cannot parse host address '" + host +
                          "' (numeric IPv4 or \"localhost\")");
  }
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::write_all(const void* data, std::size_t n) const {
  MTSCHED_REQUIRE(valid(), "write on an invalid socket");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing
    // the process with SIGPIPE.
    const ssize_t written = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket write failed");
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
}

bool Socket::read_exact(void* data, std::size_t n) const {
  MTSCHED_REQUIRE(valid(), "read on an invalid socket");
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket read failed");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw Error("connection closed mid-message (" + std::to_string(got) +
                  " of " + std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Socket::set_nonblocking(bool on) const {
  MTSCHED_REQUIRE(valid(), "set_nonblocking on an invalid socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("cannot read socket flags");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) < 0) {
    throw_errno("cannot change socket blocking mode");
  }
}

std::ptrdiff_t Socket::read_some(void* data, std::size_t n) const {
  MTSCHED_REQUIRE(valid(), "read on an invalid socket");
  while (true) {
    const ssize_t r = ::recv(fd_, data, n, 0);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) return 0;  // reset reads as end of stream
    throw_errno("socket read failed");
  }
}

std::ptrdiff_t Socket::write_some(const void* data, std::size_t n) const {
  MTSCHED_REQUIRE(valid(), "write on an invalid socket");
  while (true) {
    const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("socket write failed");
  }
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("cannot create listening socket");
  sock_ = Socket(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = parse_host("127.0.0.1");
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, SOMAXCONN) != 0) throw_errno("cannot listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("cannot read back the bound port");
  }
  port_ = ntohs(bound.sin_port);
}

Socket Listener::accept() const {
  MTSCHED_REQUIRE(sock_.valid(), "accept on a closed listener");
  while (true) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      // Frames are written as a small header followed by the payload;
      // without TCP_NODELAY that write pattern hits the Nagle +
      // delayed-ACK interaction (~40ms per response, even on loopback).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    throw_errno("accept failed");
  }
}

std::optional<Socket> Listener::try_accept() const {
  MTSCHED_REQUIRE(sock_.valid(), "accept on a closed listener");
  while (true) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // ECONNABORTED: the peer gave up between SYN and accept — not an
    // error for the listener, just nothing to hand out right now.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return std::nullopt;
    }
    // Transient resource exhaustion (process/system fd limits, kernel
    // buffers): shed this accept rather than throwing — a throw would
    // unwind the caller's whole serving loop and kill every established
    // connection over one burst. The pending connection stays in the
    // listen backlog and is handed out once resources free up.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return std::nullopt;
    }
    throw_errno("accept failed");
  }
}

void Listener::close() {
  // shutdown() wakes a concurrently blocked accept() (which then fails
  // with EINVAL); the descriptor itself is released by the destructor so
  // no handle observes a recycled fd.
  sock_.shutdown();
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("cannot create socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = parse_host(host);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("cannot connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void write_frame(const Socket& s, const std::string& payload,
                 std::size_t max_frame_bytes) {
  MTSCHED_REQUIRE(payload.size() <= max_frame_bytes,
                  "frame payload of " + std::to_string(payload.size()) +
                      " bytes exceeds the " +
                      std::to_string(max_frame_bytes) + " byte limit");
  unsigned char header[4];
  const auto n = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(n >> 24);
  header[1] = static_cast<unsigned char>(n >> 16);
  header[2] = static_cast<unsigned char>(n >> 8);
  header[3] = static_cast<unsigned char>(n);
  s.write_all(header, sizeof(header));
  if (n > 0) s.write_all(payload.data(), payload.size());
}

std::optional<std::string> read_frame(const Socket& s,
                                      std::size_t max_frame_bytes) {
  unsigned char header[4];
  if (!s.read_exact(header, sizeof(header))) return std::nullopt;
  const std::uint32_t n = (static_cast<std::uint32_t>(header[0]) << 24) |
                          (static_cast<std::uint32_t>(header[1]) << 16) |
                          (static_cast<std::uint32_t>(header[2]) << 8) |
                          static_cast<std::uint32_t>(header[3]);
  if (n > max_frame_bytes) {
    throw ParseError("oversized rpc frame: " + std::to_string(n) +
                     " bytes announced, limit is " +
                     std::to_string(max_frame_bytes));
  }
  std::string payload(n, '\0');
  if (n > 0 && !s.read_exact(payload.data(), payload.size())) {
    throw Error("connection closed before the announced frame payload");
  }
  return payload;
}

}  // namespace mtsched::core::net
