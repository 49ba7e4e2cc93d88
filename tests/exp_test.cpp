// Tests for the experiment pipeline (Lab, the campaign's case-study view,
// reporting).
#include <gtest/gtest.h>

#include <sstream>

#include "case_study_util.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/report.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/stats/summary.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;
using test_util::hcpa_vs_mcpa;

/// One shared lab for the whole test binary (construction runs the full
/// profiling campaign).
const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

std::vector<dag::GeneratedDag> mini_suite() {
  std::vector<dag::GeneratedDag> suite;
  for (std::uint64_t s : {1, 2, 3}) {
    dag::DagGenParams p;
    p.width = 4;
    p.add_ratio = 0.5;
    p.matrix_dim = 2000;
    p.seed = s;
    suite.push_back(dag::generate_random_dag(p));
  }
  return suite;
}

TEST(Lab, WiresAllThreeModels) {
  EXPECT_EQ(lab().analytical().kind(), models::CostModelKind::Analytical);
  EXPECT_EQ(lab().profile().kind(), models::CostModelKind::Profile);
  EXPECT_EQ(lab().model(models::CostModelKind::Empirical).kind(),
            models::CostModelKind::Empirical);
  EXPECT_EQ(&lab().model(models::CostModelKind::Profile), &lab().profile());
  EXPECT_EQ(lab().spec().num_nodes, 32);
}

TEST(Lab, ProfileTablesComeFromMeasurements) {
  // The profile model's exec table should track the machine's mean within
  // a few percent (it was measured through the emulator with noise).
  const auto& tables = lab().profile().tables();
  const auto& mm2000 = tables.exec.at({dag::TaskKernel::MatMul, 2000});
  for (int p = 1; p <= 32; p += 7) {
    const double truth =
        lab().machine().exec_time_mean(dag::TaskKernel::MatMul, 2000, p);
    EXPECT_NEAR(mm2000[p - 1], truth, truth * 0.06) << "p=" << p;
  }
}

TEST(Lab, EmpiricalBuildRecordsItsData) {
  EXPECT_FALSE(lab().empirical_build().exec_data.empty());
  EXPECT_EQ(lab().empirical_build().startup_data.p.size(), 3u);
}

/// The case study of one DAG under the profile model.
exp::DagOutcome evaluate(const dag::GeneratedDag& inst, std::uint64_t seed) {
  return hcpa_vs_mcpa(lab(), models::CostModelKind::Profile, {inst}, seed)
      .outcomes.at(0);
}

TEST(CaseStudy, OutcomeFieldsConsistent) {
  const auto inst = mini_suite()[0];
  const auto o = evaluate(inst, 42);
  EXPECT_EQ(o.dag_name, inst.name);
  EXPECT_EQ(o.matrix_dim, 2000);
  EXPECT_EQ(o.first.algorithm, "HCPA");
  EXPECT_EQ(o.second.algorithm, "MCPA");
  EXPECT_EQ(o.first.allocation.size(), inst.graph.num_tasks());
  EXPECT_GT(o.first.makespan_sim, 0.0);
  EXPECT_GT(o.first.makespan_exp, 0.0);
  EXPECT_GT(o.second.makespan_sim, 0.0);
  // rel definitions.
  EXPECT_NEAR(o.rel_sim(),
              o.first.makespan_sim / o.second.makespan_sim - 1.0, 1e-12);
  EXPECT_GE(o.first.sim_error_percent(), 0.0);
}

TEST(CaseStudy, DeterministicGivenSeed) {
  const auto inst = mini_suite()[1];
  const auto a = evaluate(inst, 7);
  const auto b = evaluate(inst, 7);
  EXPECT_DOUBLE_EQ(a.first.makespan_exp, b.first.makespan_exp);
  const auto c = evaluate(inst, 8);
  EXPECT_NE(a.first.makespan_exp, c.first.makespan_exp);
  // Simulated makespans ignore the experiment seed entirely.
  EXPECT_DOUBLE_EQ(a.first.makespan_sim, c.first.makespan_sim);
}

TEST(CaseStudy, RunSuiteCoversAllDags) {
  const auto res =
      hcpa_vs_mcpa(lab(), models::CostModelKind::Profile, mini_suite(), 42);
  EXPECT_EQ(res.outcomes.size(), 3u);
  EXPECT_EQ(res.model_name, "profile");
  EXPECT_EQ(res.errors_first().size(), 3u);
  EXPECT_EQ(res.with_dim(2000).size(), 3u);
  EXPECT_EQ(res.with_dim(3000).size(), 0u);
  EXPECT_GE(res.num_flips(), 0);
}

TEST(CaseStudy, VerdictFlipSemantics) {
  exp::DagOutcome o;
  o.first.makespan_sim = 10.0;
  o.second.makespan_sim = 12.0;  // sim: first wins
  o.first.makespan_exp = 12.0;
  o.second.makespan_exp = 10.0;  // exp: second wins
  EXPECT_TRUE(o.verdict_flip());
  o.first.makespan_exp = 9.0;  // exp agrees now
  EXPECT_FALSE(o.verdict_flip());
  // Exact ties count as agreement.
  o.first.makespan_sim = o.second.makespan_sim = 10.0;
  o.first.makespan_exp = 15.0;
  EXPECT_FALSE(o.verdict_flip());
}

TEST(CaseStudy, ErrorMetricIsRelativeToSimulation) {
  exp::RunRecord a;
  a.makespan_sim = 10.0;
  a.makespan_exp = 40.0;
  EXPECT_DOUBLE_EQ(a.sim_error_percent(), 300.0);  // can exceed 100 %
  a.makespan_exp = 5.0;
  EXPECT_DOUBLE_EQ(a.sim_error_percent(), 50.0);
}

TEST(CaseStudy, MismatchedPlatformsRejected) {
  // The lab's 32-node models cannot be measured on an 8-node rig.
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 8;
  const machine::JavaClusterModel small(cfg);
  const tgrid::TGridEmulator rig(small, small.platform_spec());
  EXPECT_THROW(hcpa_vs_mcpa(lab(), rig, models::CostModelKind::Analytical,
                            mini_suite(), 42),
               core::InvalidArgument);
}

TEST(Report, RelativeMakespanFigureSortedAndAnnotated) {
  const auto res =
      hcpa_vs_mcpa(lab(), models::CostModelKind::Analytical, mini_suite(), 42);
  std::vector<const exp::DagOutcome*> ptrs;
  for (const auto& o : res.outcomes) ptrs.push_back(&o);
  const auto fig = exp::render_relative_makespan_figure(ptrs, "Figure X");
  EXPECT_NE(fig.find("Figure X"), std::string::npos);
  EXPECT_NE(fig.find("verdict flips:"), std::string::npos);
  for (const auto& o : res.outcomes) {
    EXPECT_NE(fig.find(o.dag_name), std::string::npos);
  }
}

TEST(Report, CsvHasHeaderAndOneRowPerDag) {
  const auto res =
      hcpa_vs_mcpa(lab(), models::CostModelKind::Profile, mini_suite(), 42);
  std::vector<const exp::DagOutcome*> ptrs;
  for (const auto& o : res.outcomes) ptrs.push_back(&o);
  const auto csv = exp::relative_makespan_csv(ptrs);
  std::istringstream is(csv);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 1u + res.outcomes.size());
  EXPECT_EQ(csv.find("dag,n,rel_sim"), 0u);
}

TEST(Report, ErrorBoxplotsMentionEveryModel) {
  std::vector<exp::CaseStudyResult> results;
  for (auto kind :
       {models::CostModelKind::Analytical, models::CostModelKind::Profile}) {
    results.push_back(hcpa_vs_mcpa(lab(), kind, mini_suite(), 42));
  }
  const auto box = exp::render_error_boxplots(results);
  EXPECT_NE(box.find("analytical"), std::string::npos);
  EXPECT_NE(box.find("profile"), std::string::npos);
  EXPECT_NE(box.find("HCPA"), std::string::npos);
  EXPECT_NE(box.find("MCPA"), std::string::npos);
}

TEST(PaperClaim, RefinedModelsBeatAnalyticalOnError) {
  // The paper's core finding, as a regression test: the profile-based
  // simulator's makespan error is far below the analytical simulator's.
  const auto suite = mini_suite();
  const auto res_a =
      hcpa_vs_mcpa(lab(), models::CostModelKind::Analytical, suite, 42);
  const auto res_p =
      hcpa_vs_mcpa(lab(), models::CostModelKind::Profile, suite, 42);
  const double err_a = stats::mean(res_a.errors_first());
  const double err_p = stats::mean(res_p.errors_first());
  EXPECT_GT(err_a, 5.0 * err_p);
  EXPECT_LT(err_p, 15.0);  // "under 10 % error on average" ballpark
}

}  // namespace
