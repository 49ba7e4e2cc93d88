// Tests for the shared schedule-replay core (a ReplayPlan run on a
// ReplayRunner) with plain timer phase hooks (no cost model, no machine
// model).
#include <gtest/gtest.h>

#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/simcore/replay.hpp"

namespace {

using namespace mtsched;
using simcore::CompletionFn;

/// a -> b on disjoint single processors of a 2-node star.
struct Chain {
  dag::Dag g;
  sched::Schedule s;
  platform::ClusterSpec spec = platform::bayreuth32(2);
  Chain() {
    g.add_task(dag::TaskKernel::MatAdd, 100);
    g.add_task(dag::TaskKernel::MatAdd, 100);
    g.add_edge(0, 1);
    s.placements = {{{0}, 0.0, 1.0}, {{1}, 1.0, 2.0}};
    s.proc_order = {{0}, {1}};
  }
};

/// Timer hooks: startup takes 1 s for task 0 and 5 s for task 1, execution
/// 2 s, protocol overhead 0.5 s.
simcore::ReplayPolicy timers(simcore::ReplayRunner& runner, bool wait) {
  simcore::ReplayPolicy p;
  p.startup = [&runner](dag::TaskId t, CompletionFn done) {
    runner.engine().submit_timer(t == 0 ? 1.0 : 5.0, std::move(done));
  };
  p.execute = [&runner](dag::TaskId, CompletionFn done) {
    runner.engine().submit_timer(2.0, std::move(done));
  };
  p.overhead = [&runner](std::size_t, CompletionFn done) {
    runner.engine().submit_timer(0.5, std::move(done));
  };
  p.transfer_waits_for_consumer = wait;
  return p;
}

TEST(Replay, TransferStartsAtProducerFinish) {
  Chain c;
  const simcore::ReplayPlan plan(c.g, c.s, c.spec);
  simcore::ReplayRunner runner;
  const auto& trace = runner.run(plan, timers(runner, /*wait=*/false));
  EXPECT_DOUBLE_EQ(trace.tasks[0].finish, 3.0);
  EXPECT_DOUBLE_EQ(trace.edges[0].request, 3.0);
  EXPECT_DOUBLE_EQ(trace.edges[0].transfer, 3.5);
  EXPECT_GE(trace.tasks[1].exec_begin, 5.0);
  EXPECT_DOUBLE_EQ(trace.makespan, trace.tasks[1].finish);
}

TEST(Replay, TransferWaitsForConsumerStartup) {
  Chain c;
  const simcore::ReplayPlan plan(c.g, c.s, c.spec);
  simcore::ReplayRunner runner;
  const auto& trace = runner.run(plan, timers(runner, /*wait=*/true));
  EXPECT_DOUBLE_EQ(trace.edges[0].request, 5.0);
  EXPECT_DOUBLE_EQ(trace.edges[0].transfer, 5.5);
  EXPECT_DOUBLE_EQ(trace.tasks[1].exec_begin, trace.edges[0].done);
  EXPECT_DOUBLE_EQ(trace.makespan, trace.edges[0].done + 2.0);
}

TEST(Replay, TaskThatNeverFinishesIsAnInternalError) {
  Chain c;
  const simcore::ReplayPlan plan(c.g, c.s, c.spec);
  simcore::ReplayRunner runner;
  auto policy = timers(runner, /*wait=*/false);
  policy.execute = [](dag::TaskId, CompletionFn) {};
  EXPECT_THROW(runner.run(plan, policy), core::InternalError);
}

}  // namespace
