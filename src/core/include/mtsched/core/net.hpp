// Minimal blocking TCP sockets + length-prefixed framing — the transport
// under the mtsched rpc service (see exp/rpc.hpp for the payload schema).
//
// Scope is deliberately small: loopback-friendly IPv4 stream sockets with
// RAII lifetimes, and one frame format — a 4-byte big-endian payload
// length followed by that many payload bytes. Both sides bound frame
// sizes, so a malformed or hostile peer cannot make a reader allocate
// unbounded memory. The default calls block (the rpc client uses them
// as-is); a socket switched to non-blocking mode via set_nonblocking()
// exposes read_some/write_some for event loops built on net::Poller
// (poller.hpp) — the rpc server multiplexes every connection that way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace mtsched::core::net {

/// Frames larger than this are rejected by default on read and write.
/// Large enough for any request this repo produces (DAG texts are a few
/// KB at paper scale), small enough to stop runaway allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;

/// RAII owner of one stream-socket file descriptor. Move-only; the
/// destructor closes. A default-constructed Socket is invalid.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the descriptor now (idempotent).
  void close();

  /// Half-closes both directions without releasing the descriptor —
  /// wakes a thread blocked on this socket (used to interrupt accept()).
  void shutdown() const;

  /// Writes all `n` bytes. Throws core::Error on any failure.
  void write_all(const void* data, std::size_t n) const;

  /// Reads exactly `n` bytes. Returns false on clean EOF before the
  /// first byte; throws core::Error on errors or EOF mid-read.
  bool read_exact(void* data, std::size_t n) const;

  /// Switches the descriptor between blocking (the default) and
  /// non-blocking mode. Non-blocking sockets drive the event-loop
  /// primitives below; the blocking read/write calls above stay usable
  /// only on blocking sockets.
  void set_nonblocking(bool on) const;

  /// Non-blocking read: the number of bytes read (> 0), 0 on EOF, or -1
  /// when the operation would block (try again after poll readiness).
  /// Throws core::Error on genuine failure. A reset peer (ECONNRESET)
  /// reads as EOF: the stream is over either way.
  std::ptrdiff_t read_some(void* data, std::size_t n) const;

  /// Non-blocking write: the number of bytes accepted (possibly short),
  /// or -1 when the socket buffer is full (try again after poll
  /// readiness). Throws core::Error on failure, including a peer that
  /// hung up (EPIPE).
  std::ptrdiff_t write_some(const void* data, std::size_t n) const;

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to 127.0.0.1 (the service is local by
/// design; fronting it with real ingress is out of scope here).
class Listener {
 public:
  /// Binds and listens; `port` 0 picks an ephemeral port — read it back
  /// with port(). Throws core::Error when binding fails.
  explicit Listener(std::uint16_t port);

  /// The actually bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// The listening descriptor, for registration with a net::Poller.
  int fd() const { return sock_.fd(); }

  /// Switches the listening socket's blocking mode (see Socket); a
  /// non-blocking listener is the precondition for try_accept().
  void set_nonblocking(bool on) const { sock_.set_nonblocking(on); }

  /// Blocks for one connection. Throws core::Error on failure — in
  /// particular after close() interrupted it from another thread.
  Socket accept() const;

  /// Non-blocking accept (listener must be in non-blocking mode):
  /// nullopt when no connection is pending, the accepted socket (with
  /// TCP_NODELAY, still in blocking mode) otherwise. Throws core::Error
  /// on real failure.
  std::optional<Socket> try_accept() const;

  /// Interrupts a blocked accept() and stops accepting (idempotent,
  /// callable from any thread).
  void close();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to `host`:`port` (numeric IPv4 or "localhost"). Throws
/// core::Error when the connection fails.
Socket connect_to(const std::string& host, std::uint16_t port);

/// Writes one frame: 4-byte big-endian length, then the payload. Throws
/// core::InvalidArgument when the payload exceeds `max_frame_bytes` and
/// core::Error on I/O failure.
void write_frame(const Socket& s, const std::string& payload,
                 std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Reads one frame. Returns nullopt on clean EOF at a frame boundary.
/// Throws core::ParseError when the announced length exceeds
/// `max_frame_bytes` (oversized frame) and core::Error on I/O failure or
/// EOF mid-frame (truncated frame).
std::optional<std::string> read_frame(
    const Socket& s, std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace mtsched::core::net
