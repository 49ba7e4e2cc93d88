// Tests for the FIFO single-server queue (the subnet manager model).
#include <gtest/gtest.h>

#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/simcore/fifo.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;

TEST(Fifo, ServesInArrivalOrder) {
  Engine e;
  FifoServer f(e);
  std::vector<int> order;
  f.enqueue(1.0, [&](double) { order.push_back(1); });
  f.enqueue(1.0, [&](double) { order.push_back(2); });
  f.enqueue(1.0, [&](double) { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fifo, JobsSerialize) {
  Engine e;
  FifoServer f(e);
  std::vector<double> done;
  for (double s : {2.0, 3.0, 1.0}) {
    f.enqueue(s, [&](double t) { done.push_back(t); });
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
  EXPECT_DOUBLE_EQ(done[2], 6.0);
}

TEST(Fifo, WaitTimeAccounted) {
  Engine e;
  FifoServer f(e);
  // All three arrive at t = 0; a job waits from arrival until its service
  // begins, which is its completion time minus its service time.
  double total_wait = 0.0;
  for (int i = 0; i < 3; ++i) {
    f.enqueue(2.0, [&](double t) { total_wait += t - 2.0; });
  }
  e.run();
  EXPECT_DOUBLE_EQ(total_wait, 0.0 + 2.0 + 4.0);
}

TEST(Fifo, IdleBetweenBursts) {
  Engine e;
  FifoServer f(e);
  std::vector<double> done;
  f.enqueue(1.0, [&](double t) { done.push_back(t); });
  // A timer enqueues another job after the server went idle.
  e.submit_timer(10.0, [&](double) {
    f.enqueue(1.0, [&](double t) { done.push_back(t); });
  });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 11.0);
  // The server is idle again: a new job starts at once.
  f.enqueue(1.0, [&](double t) { done.push_back(t); });
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[2], 12.0);
}

TEST(Fifo, EnqueueFromCompletionCallback) {
  Engine e;
  FifoServer f(e);
  std::vector<double> done;
  f.enqueue(1.0, [&](double t) {
    done.push_back(t);
    f.enqueue(2.0, [&](double t2) { done.push_back(t2); });
  });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[1], 3.0);
}

TEST(Fifo, ZeroServiceTimeAllowed) {
  Engine e;
  FifoServer f(e);
  double done = -1.0;
  f.enqueue(0.0, [&](double t) { done = t; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(Fifo, NegativeServiceTimeRejected) {
  Engine e;
  FifoServer f(e);
  EXPECT_THROW(f.enqueue(-1.0, nullptr), InvalidArgument);
}

TEST(Fifo, QueueLengthVisible) {
  Engine e;
  FifoServer f(e);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    f.enqueue(5.0, [&](double t) { done.push_back(t); });
  }
  // First job is in service, two are queued behind it; the queue drains,
  // so a job arriving afterwards is served at once.
  e.run();
  EXPECT_EQ(done, (std::vector<double>{5.0, 10.0, 15.0}));
  f.enqueue(5.0, [&](double t) { done.push_back(t); });
  e.run();
  EXPECT_DOUBLE_EQ(done.back(), 20.0);
}

}  // namespace
