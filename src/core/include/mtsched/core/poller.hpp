// poll(2)-based readiness multiplexer — the heart of the event-driven
// rpc server (exp/server.hpp).
//
// One Poller watches many file descriptors for read/write readiness from
// a single owner thread; the only cross-thread entry point is wake(),
// which interrupts a blocked wait() through a self-pipe so pool workers
// can hand completed work back to the event loop. Everything else
// (add/set/remove/wait) must be called from the owner thread only.
//
// poll(2) over epoll on purpose: the server multiplexes at most a few
// hundred loopback connections, where poll's O(n) scan is noise next to
// request compute, and poll is portable POSIX with no kernel object to
// manage.
#pragma once

#include <cstddef>
#include <vector>

struct pollfd;  // <poll.h>, kept out of the public header

namespace mtsched::core::net {

class Poller {
 public:
  /// Interest/readiness bits (bitwise-or combinable).
  enum Interest : short {
    kRead = 1,
    kWrite = 2,
  };

  /// One ready descriptor reported by wait(). `error` covers
  /// POLLERR/POLLHUP/POLLNVAL — the owner should treat the fd as dead
  /// (a half-closed peer also raises `readable`; reading yields EOF).
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  /// Creates the self-pipe backing wake(). Throws core::Error when pipe
  /// creation fails.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Starts watching `fd` with `interest` (kRead/kWrite bits). The fd
  /// must not already be registered.
  void add(int fd, short interest);

  /// Replaces the interest set of a registered fd (0 parks it: stays
  /// registered, reports nothing — how the server applies read
  /// backpressure without losing the connection slot).
  void set(int fd, short interest);

  /// Stops watching a registered fd.
  void remove(int fd);

  /// Blocks until at least one registered fd is ready, wake() is called,
  /// or `timeout_ms` elapses (-1 = no timeout). Returns the ready events
  /// (empty on timeout or bare wake); the wake pipe is drained
  /// internally and never reported. Owner thread only.
  const std::vector<Event>& wait(int timeout_ms = -1);

  /// Interrupts a concurrent or future wait(). Thread-safe, async-signal
  /// unsafe, idempotent until the next wait() drains the pipe.
  void wake();

 private:
  std::size_t index_of(int fd) const;

  /// fds_[0] is the self-pipe read end; registered fds follow. A dense
  /// vector (order not preserved by remove()) keeps the poll(2) call one
  /// contiguous span with no per-wait assembly.
  std::vector<struct pollfd> fds_;
  std::vector<Event> events_;
  int wake_read_ = -1;
  int wake_write_ = -1;
};

}  // namespace mtsched::core::net
