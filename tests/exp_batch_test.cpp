// Batch-simulation tests: sched::CostCurveTable (the shared cost-curve
// cache behind Session::BatchScope) and the batch pipeline itself —
// responses must be bit-identical to serving each request through run().
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/exp/session.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/sched/cost.hpp"

namespace {

using namespace mtsched;

const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

std::string dag_text(std::uint64_t seed, int tasks = 8) {
  dag::DagGenParams p;
  p.num_tasks = tasks;
  p.width = 4;
  p.add_ratio = 0.5;
  p.matrix_dim = 2000;
  p.seed = seed;
  return dag::to_text(dag::generate_random_dag(p).graph);
}

// --- CostCurveTable ------------------------------------------------------

class CostCurveTableTest : public ::testing::Test {
 protected:
  CostCurveTableTest()
      : model_(lab().model(models::ModelSpec::parse("profile"))),
        base_(model_),
        P_(lab().spec().num_nodes),
        table_(base_, P_) {}

  const models::CostModel& model_;
  models::SchedCostAdapter base_;
  int P_;
  sched::CostCurveTable table_;
};

TEST_F(CostCurveTableTest, ServesBitIdenticalValues) {
  const auto g =
      dag::generate_random_dag({.num_tasks = 12, .width = 4, .seed = 5}).graph;
  for (const auto& t : g.tasks()) {
    for (int p = 1; p <= P_; ++p) {
      EXPECT_EQ(table_.task_time(t, p), base_.task_time(t, p));
      EXPECT_EQ(table_.exec_time(t, p), base_.exec_time(t, p));
      EXPECT_EQ(table_.startup_time(p), base_.startup_time(p));
      for (int q = 1; q <= P_; ++q) {
        EXPECT_EQ(table_.redist_time(t, p, q), base_.redist_time(t, p, q));
        EXPECT_EQ(table_.redist_overhead_time(p, q),
                  base_.redist_overhead_time(p, q));
      }
    }
  }
}

TEST_F(CostCurveTableTest, CurveQueriesMatchTheBaseCurves) {
  const auto g =
      dag::generate_random_dag({.num_tasks = 6, .width = 2, .seed = 9}).graph;
  std::vector<double> want(static_cast<std::size_t>(P_));
  std::vector<double> got(static_cast<std::size_t>(P_));
  for (const auto& t : g.tasks()) {
    base_.task_time_curve(t, want);
    table_.task_time_curve(t, got);
    EXPECT_EQ(want, got);
    for (int p = 1; p <= P_; ++p) {
      base_.redist_time_curve(t, p, want);
      table_.redist_time_curve(t, p, got);
      EXPECT_EQ(want, got);
    }
  }
  // Prefix-length queries read the same full-P row.
  std::vector<double> prefix(2);
  base_.task_time_curve(g.task(0), std::span<double>(want).first(2));
  table_.task_time_curve(g.task(0), prefix);
  EXPECT_EQ(want[0], prefix[0]);
  EXPECT_EQ(want[1], prefix[1]);
}

TEST_F(CostCurveTableTest, FillsEachShapeOnce) {
  const auto g =
      dag::generate_random_dag({.num_tasks = 40, .width = 4, .seed = 3}).graph;
  std::vector<double> out(static_cast<std::size_t>(P_));
  for (const auto& t : g.tasks()) table_.task_time_curve(t, out);
  // 40 tasks, but only (kernel, dim) shapes distinct: MatAdd and MatMul
  // at one dimension = 2 shapes, so 2 fills no matter how many tasks.
  EXPECT_EQ(table_.num_shapes(), 2u);
  EXPECT_EQ(table_.curve_fills(), 2u);
  const std::size_t after_tasks = table_.curve_fills();
  for (const auto& t : g.tasks()) table_.task_time_curve(t, out);
  EXPECT_EQ(table_.curve_fills(), after_tasks);  // all cached
  // Redistribution rows fill per (shape, p_src).
  for (const auto& t : g.tasks()) {
    table_.redist_time_curve(t, 1, out);
    table_.redist_time_curve(t, 2, out);
  }
  EXPECT_EQ(table_.curve_fills(), after_tasks + 4);
}

TEST_F(CostCurveTableTest, RejectsOversizedQueries) {
  const auto g =
      dag::generate_random_dag({.num_tasks = 2, .width = 2, .seed = 1}).graph;
  std::vector<double> too_big(static_cast<std::size_t>(P_) + 1);
  EXPECT_THROW(table_.task_time_curve(g.task(0), too_big),
               core::InvalidArgument);
  EXPECT_THROW(table_.redist_time_curve(g.task(0), 1, too_big),
               core::InvalidArgument);
  // The analytical model answers startup and overhead for any p, so the
  // table's own range check is what must reject these.
  const models::SchedCostAdapter analytical(
      lab().model(models::ModelSpec::parse("analytical")));
  const sched::CostCurveTable table(analytical, P_, g);
  const auto& t = g.task(0);
  std::vector<double> one(1);
  for (int bad : {0, P_ + 1}) {
    EXPECT_THROW(table.exec_time(t, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.startup_time(bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_time(t, bad, 1), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_time(t, 1, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_overhead_time(bad, 1), core::InvalidArgument)
        << bad;
    EXPECT_THROW(table.redist_overhead_time(1, bad), core::InvalidArgument)
        << bad;
    EXPECT_THROW(table.redist_time_curve(t, bad, one), core::InvalidArgument)
        << bad;
    EXPECT_THROW(table.tau(0, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist(0, bad, 1), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist(0, 1, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_curve(0, bad, 1), core::InvalidArgument) << bad;
  }
  EXPECT_THROW(table.redist_curve(0, 1, static_cast<std::size_t>(P_) + 1),
               core::InvalidArgument);
}

// --- Session::BatchScope -------------------------------------------------

/// Serves `reqs` in order through one BatchScope; `artifacts`, when given,
/// gets one entry per request.
std::vector<exp::ScheduleResponse> serve_batch(
    const exp::Session& session, const std::vector<exp::ScheduleRequest>& reqs,
    std::vector<exp::RunArtifacts>* artifacts = nullptr) {
  exp::Session::BatchScope scope(session);
  if (artifacts != nullptr) artifacts->assign(reqs.size(), {});
  std::vector<exp::ScheduleResponse> out;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out.push_back(
        scope.run(reqs[i], artifacts != nullptr ? &(*artifacts)[i] : nullptr));
  }
  return out;
}

std::vector<exp::ScheduleRequest> sample_batch() {
  std::vector<exp::ScheduleRequest> reqs;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    exp::ScheduleRequest req;
    req.dag_text = dag_text(seed);
    req.algorithm = seed % 2 == 0 ? "HCPA" : "MCPA";
    req.model = models::ModelSpec::parse(seed % 2 == 0 ? "profile"
                                                       : "analytical");
    req.exp_seed = 42;
    reqs.push_back(std::move(req));
  }
  return reqs;
}

TEST(RunBatch, BitIdenticalToSequentialRuns) {
  const auto reqs = sample_batch();
  const exp::Session sequential(lab());
  const exp::Session batched(lab());
  const auto batch = serve_batch(batched, reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Compare through the wire codec: equal encodings = equal bytes in
    // every rendered report.
    EXPECT_EQ(exp::encode_response(batch[i]),
              exp::encode_response(sequential.run(reqs[i])))
        << "request " << i;
  }
}

TEST(RunBatch, SharesScheduleCacheWithRun) {
  const exp::Session session(lab());
  const auto reqs = sample_batch();
  (void)serve_batch(session, reqs);
  const auto misses = session.cache_misses();
  EXPECT_EQ(misses, reqs.size());
  // The same requests through run() hit the cells the batch filled.
  for (const auto& req : reqs) (void)session.run(req);
  EXPECT_EQ(session.cache_misses(), misses);
  EXPECT_EQ(session.cache_hits(), reqs.size());
}

TEST(RunBatch, BadRequestDoesNotPoisonTheBatch) {
  auto reqs = sample_batch();
  reqs[1].model = models::ModelSpec::parse("analytical");
  reqs[1].platform = "no-such-platform";
  reqs[2].dag_text = "not a dag";
  const exp::Session session(lab());
  const auto out = serve_batch(session, reqs);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(out[1].status, exp::ServiceStatus::BadRequest);
  EXPECT_EQ(out[2].status, exp::ServiceStatus::BadRequest);
  EXPECT_TRUE(out[3].ok());
}

TEST(RunBatch, FillsOneArtifactPerRequest) {
  const auto reqs = sample_batch();
  const exp::Session session(lab());
  std::vector<exp::RunArtifacts> artifacts;
  const auto out = serve_batch(session, reqs, &artifacts);
  ASSERT_EQ(artifacts.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(artifacts[i].schedule.allocation(), out[i].allocation);
    EXPECT_GT(artifacts[i].exp_trace.makespan, 0.0);
  }
}

TEST(RunBatch, EmptyBatchIsANoOp) {
  const exp::Session session(lab());
  std::vector<exp::RunArtifacts> artifacts;
  EXPECT_TRUE(serve_batch(session, {}, &artifacts).empty());
  EXPECT_TRUE(artifacts.empty());
}

}  // namespace
