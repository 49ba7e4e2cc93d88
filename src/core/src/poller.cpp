#include "mtsched/core/poller.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mtsched/core/error.hpp"

namespace mtsched::core::net {

namespace {

void set_nonblock_fd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw Error(std::string("cannot make fd non-blocking: ") +
                std::strerror(errno));
  }
}

short to_poll_events(short interest) {
  short ev = 0;
  if (interest & Poller::kRead) ev |= POLLIN;
  if (interest & Poller::kWrite) ev |= POLLOUT;
  return ev;
}

}  // namespace

Poller::Poller() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw Error(std::string("cannot create poller wake pipe: ") +
                std::strerror(errno));
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  // Both ends non-blocking: wake() never blocks on a full pipe (one
  // pending byte is enough to wake), draining never blocks on an empty
  // one.
  set_nonblock_fd(wake_read_);
  set_nonblock_fd(wake_write_);
  fds_.push_back(pollfd{wake_read_, POLLIN, 0});
}

Poller::~Poller() {
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

std::size_t Poller::index_of(int fd) const {
  for (std::size_t i = 1; i < fds_.size(); ++i) {
    if (fds_[i].fd == fd) return i;
  }
  throw InternalError("fd " + std::to_string(fd) +
                      " is not registered with this poller");
}

void Poller::add(int fd, short interest) {
  MTSCHED_REQUIRE(fd >= 0, "cannot poll an invalid fd");
  for (std::size_t i = 1; i < fds_.size(); ++i) {
    MTSCHED_REQUIRE(fds_[i].fd != fd,
                    "fd " + std::to_string(fd) + " is already registered");
  }
  fds_.push_back(pollfd{fd, to_poll_events(interest), 0});
}

void Poller::set(int fd, short interest) {
  fds_[index_of(fd)].events = to_poll_events(interest);
}

void Poller::remove(int fd) {
  const std::size_t i = index_of(fd);
  fds_[i] = fds_.back();
  fds_.pop_back();
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  events_.clear();
  int ready;
  do {
    ready = ::poll(fds_.data(), fds_.size(), timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) {
    throw Error(std::string("poll failed: ") + std::strerror(errno));
  }
  if (fds_[0].revents != 0) {
    char buf[64];
    while (::read(wake_read_, buf, sizeof(buf)) > 0) {
    }
  }
  for (std::size_t i = 1; i < fds_.size(); ++i) {
    const short re = fds_[i].revents;
    if (re == 0) continue;
    Event ev;
    ev.fd = fds_[i].fd;
    ev.readable = (re & POLLIN) != 0;
    ev.writable = (re & POLLOUT) != 0;
    ev.error = (re & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events_.push_back(ev);
  }
  return events_;
}

void Poller::wake() {
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly as good.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

}  // namespace mtsched::core::net
