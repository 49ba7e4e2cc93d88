// Poller (core/poller.hpp) unit tests: readiness reporting, interest
// updates and parking, removal, the cross-thread wake pipe, and
// timeouts.
#include "mtsched/core/poller.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"

namespace {

using namespace mtsched;
using core::net::Poller;

/// A connected AF_UNIX stream pair with RAII cleanup — readiness
/// semantics match TCP without needing a listener.
struct SocketPair {
  int a = -1;
  int b = -1;

  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw core::Error("socketpair failed");
    }
    a = fds[0];
    b = fds[1];
  }

  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Poller, ReportsReadableWhenDataArrives) {
  SocketPair pair;
  Poller poller;
  poller.add(pair.a, Poller::kRead);

  // Nothing to read yet: a bounded wait comes back empty.
  EXPECT_TRUE(poller.wait(10).empty());

  ASSERT_EQ(::write(pair.b, "x", 1), 1);
  const auto& events = poller.wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pair.a);
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);
}

TEST(Poller, ReportsWritableOnRequest) {
  SocketPair pair;
  Poller poller;
  // An idle stream socket has buffer space: writable immediately.
  poller.add(pair.a, Poller::kWrite);
  const auto& events = poller.wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, pair.a);
  EXPECT_TRUE(events[0].writable);
}

TEST(Poller, SetZeroParksAndSetRestores) {
  SocketPair pair;
  Poller poller;
  poller.add(pair.a, Poller::kRead);
  ASSERT_EQ(::write(pair.b, "x", 1), 1);

  // Parked: data is pending but nothing is reported (this is how the
  // server pauses reading a backpressured connection).
  poller.set(pair.a, 0);
  EXPECT_TRUE(poller.wait(10).empty());

  // Still registered: set() rejects fds it does not watch.
  poller.set(pair.a, Poller::kRead);
  const auto& events = poller.wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].readable);
}

TEST(Poller, RemoveStopsReporting) {
  SocketPair pair;
  Poller poller;
  poller.add(pair.a, Poller::kRead);
  poller.remove(pair.a);
  ASSERT_EQ(::write(pair.b, "x", 1), 1);
  EXPECT_TRUE(poller.wait(10).empty());
}

TEST(Poller, AddRejectsDuplicatesAndSetRejectsStrangers) {
  SocketPair pair;
  Poller poller;
  poller.add(pair.a, Poller::kRead);
  EXPECT_THROW(poller.add(pair.a, Poller::kRead), core::Error);
  EXPECT_THROW(poller.set(pair.b, Poller::kRead), core::Error);
  EXPECT_THROW(poller.remove(pair.b), core::Error);
}

TEST(Poller, WakeInterruptsABlockedWaitFromAnotherThread) {
  Poller poller;
  std::thread waker([&poller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    poller.wake();
  });
  // No fds registered and no timeout: only wake() can end this wait.
  const auto& events = poller.wait(-1);
  waker.join();
  EXPECT_TRUE(events.empty());  // the wake pipe itself is never reported
}

TEST(Poller, WakeBeforeWaitIsNotLost) {
  Poller poller;
  poller.wake();
  poller.wake();  // coalesces with the first
  EXPECT_TRUE(poller.wait(1000).empty());
  // Drained: the next bounded wait times out instead of spinning.
  EXPECT_TRUE(poller.wait(10).empty());
}

TEST(Poller, ReportsAHungUpPeer) {
  SocketPair pair;
  Poller poller;
  poller.add(pair.a, Poller::kRead);
  ::close(pair.b);
  pair.b = -1;
  const auto& events = poller.wait(1000);
  ASSERT_EQ(events.size(), 1u);
  // EOF surfaces as readable and/or POLLHUP; either way the owner gets
  // an event to act on.
  EXPECT_TRUE(events[0].readable || events[0].error);
}

TEST(Poller, MultiplexesManyFds) {
  std::vector<std::unique_ptr<SocketPair>> pairs;
  Poller poller;
  for (int i = 0; i < 8; ++i) {
    pairs.push_back(std::make_unique<SocketPair>());
    poller.add(pairs.back()->a, Poller::kRead);
  }
  ASSERT_EQ(::write(pairs[2]->b, "x", 1), 1);
  ASSERT_EQ(::write(pairs[6]->b, "x", 1), 1);
  const auto& events = poller.wait(1000);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE((events[0].fd == pairs[2]->a && events[1].fd == pairs[6]->a) ||
              (events[0].fd == pairs[6]->a && events[1].fd == pairs[2]->a));
}

}  // namespace
