// Golden replay test: pins the complete RunTrace of simulator and emulator
// replays, so that any change to replay event order or phase costs shows
// up as a byte difference.
//
// Each golden file under tests/golden/replay/ holds RunTrace::to_csv()
// followed by one `makespan,<hexfloat>` line (the exact double). The cases
// cover the simulator under all three cost models and the emulator under
// two experiment seeds, each on a flat star (bayreuth32) and on a
// two-rack fabric (hier2x16, the hierarchical ClusterSim path); one run of
// each on an oversubscribed four-rack fabric (hier4x8), where rack uplink
// contention moves the stamps; one analytical simulation and one emulator
// run on each remaining star variant, cray_xt4(32) (a non-blocking switch,
// so no fabric resource) and a 32-node heterogeneous cluster (per-node
// speeds); and an emulator run on a measurement table whose startup row is
// all zeros.
//
// The ReplayReuse cases check that one replay plan, run on one runner for
// several experiment seeds in turn, reproduces fresh replays exactly; the
// SharedCompile cases interleave simulations on the same plan and runner;
// the ConcurrentRunners case replays one plan on four runners on four
// threads at once.
//
// To re-baseline after an intended behaviour change, delete the golden
// file and run the test once: it writes the current output in its place
// and fails, so the new file can be reviewed and committed.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/machine/table_machine.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"
#include "mtsched/simcore/replay.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;
using models::CostModelKind;

std::string golden_text(const sched::RunTrace& trace) {
  std::ostringstream os;
  os << trace.to_csv() << "makespan," << std::hexfloat << trace.makespan
     << '\n';
  return os.str();
}

void expect_golden(const std::string& name, const sched::RunTrace& trace) {
  const std::string path =
      std::string(MTSCHED_GOLDEN_DIR) + "/replay/" + name + ".csv";
  const std::string actual = golden_text(trace);
  std::ifstream in(path);
  if (!in) {
    std::ofstream(path) << actual;
    FAIL() << "golden file " << path << " was missing; wrote it, re-run";
  }
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual) << "replay drifted from " << path;
}

/// The same lab construction the CLI uses for `--platform` (every platform
/// here has 32 nodes, so the default profiling plan applies).
std::unique_ptr<exp::Lab> lab_on(platform::ClusterSpec spec) {
  exp::LabConfig cfg;
  cfg.machine.num_nodes = spec.num_nodes;
  cfg.machine.nominal_flops = spec.reference_flops();
  auto machine = std::make_unique<machine::JavaClusterModel>(cfg.machine);
  return std::make_unique<exp::Lab>(std::move(machine), std::move(spec), cfg);
}

class ReplayGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dag::DagGenParams params;
    params.num_tasks = 20;
    params.width = 4;
    params.seed = 7;
    dag_ = std::make_unique<dag::Dag>(dag::generate_random_dag(params).graph);
    flat_ = lab_on(platform::bayreuth32());
    hier_ = lab_on(*platform::named_platform("hier2x16"));
    oversub_ = lab_on(*platform::named_platform("hier4x8"));
    cray_ = lab_on(platform::cray_xt4(32));
    hetero_ = lab_on(platform::heterogeneous_cluster(32, 150e6, 350e6, 3));
  }
  static void TearDownTestSuite() {
    dag_.reset();
    flat_.reset();
    hier_.reset();
    oversub_.reset();
    cray_.reset();
    hetero_.reset();
  }

  /// HCPA + earliest-start mapping under `kind`'s cost estimates.
  static sched::Schedule schedule(const exp::Lab& lab, CostModelKind kind) {
    const models::SchedCostAdapter cost(lab.model(kind));
    const int P = lab.spec().num_nodes;
    const auto alloc = sched::make_allocator("HCPA")->allocate(*dag_, cost, P);
    return sched::ListMapper(sched::MappingStrategy::EarliestStart, lab.spec())
        .map(*dag_, alloc, cost, P);
  }

  static void simulate(const std::string& name, const exp::Lab& lab,
                       CostModelKind kind) {
    const sim::Simulator simulator(lab.model(kind));
    expect_golden(name, simulator.run(*dag_, schedule(lab, kind)));
  }

  static void execute(const std::string& name, const exp::Lab& lab,
                      std::uint64_t seed) {
    const auto s = schedule(lab, CostModelKind::Profile);
    expect_golden(name, lab.rig().run(*dag_, s, seed));
  }

  static inline std::unique_ptr<dag::Dag> dag_;
  static inline std::unique_ptr<exp::Lab> flat_;
  static inline std::unique_ptr<exp::Lab> hier_;
  static inline std::unique_ptr<exp::Lab> oversub_;
  static inline std::unique_ptr<exp::Lab> cray_;
  static inline std::unique_ptr<exp::Lab> hetero_;
};

TEST_F(ReplayGolden, SimulatorAnalyticalBayreuth32) {
  simulate("sim_analytical_bayreuth32", *flat_, CostModelKind::Analytical);
}

TEST_F(ReplayGolden, SimulatorProfileBayreuth32) {
  simulate("sim_profile_bayreuth32", *flat_, CostModelKind::Profile);
}

TEST_F(ReplayGolden, SimulatorEmpiricalBayreuth32) {
  simulate("sim_empirical_bayreuth32", *flat_, CostModelKind::Empirical);
}

TEST_F(ReplayGolden, SimulatorAnalyticalHier2x16) {
  simulate("sim_analytical_hier2x16", *hier_, CostModelKind::Analytical);
}

TEST_F(ReplayGolden, SimulatorProfileHier2x16) {
  simulate("sim_profile_hier2x16", *hier_, CostModelKind::Profile);
}

TEST_F(ReplayGolden, SimulatorEmpiricalHier2x16) {
  simulate("sim_empirical_hier2x16", *hier_, CostModelKind::Empirical);
}

TEST_F(ReplayGolden, SimulatorAnalyticalHier4x8) {
  simulate("sim_analytical_hier4x8", *oversub_, CostModelKind::Analytical);
}

TEST_F(ReplayGolden, SimulatorAnalyticalCrayXt4) {
  simulate("sim_analytical_cray_xt4", *cray_, CostModelKind::Analytical);
}

TEST_F(ReplayGolden, SimulatorAnalyticalHetero32) {
  simulate("sim_analytical_hetero32", *hetero_, CostModelKind::Analytical);
}

TEST_F(ReplayGolden, EmulatorSeed1Bayreuth32) {
  execute("tgrid_seed1_bayreuth32", *flat_, 1);
}

TEST_F(ReplayGolden, EmulatorSeed9001Bayreuth32) {
  execute("tgrid_seed9001_bayreuth32", *flat_, 9001);
}

TEST_F(ReplayGolden, EmulatorSeed1Hier2x16) {
  execute("tgrid_seed1_hier2x16", *hier_, 1);
}

TEST_F(ReplayGolden, EmulatorSeed9001Hier2x16) {
  execute("tgrid_seed9001_hier2x16", *hier_, 9001);
}

TEST_F(ReplayGolden, EmulatorSeed1Hier4x8) {
  execute("tgrid_seed1_hier4x8", *oversub_, 1);
}

TEST_F(ReplayGolden, EmulatorSeed1CrayXt4) {
  execute("tgrid_seed1_cray_xt4", *cray_, 1);
}

TEST_F(ReplayGolden, EmulatorSeed1Hetero32) {
  execute("tgrid_seed1_hetero32", *hetero_, 1);
}

TEST_F(ReplayGolden, EmulatorZeroStartupTable) {
  // A zero startup still goes through a zero-length timer in the emulator
  // (the simulator skips it): the timer's completion is a separate engine
  // event, so skipping it would reorder the replay.
  auto tables = machine::snapshot_tables(
      flat_->machine(), {{dag::TaskKernel::MatMul, 2000},
                         {dag::TaskKernel::MatAdd, 2000}});
  tables.startup.assign(tables.startup.size(), 0.0);
  const machine::TableMachineModel table(std::move(tables));
  const tgrid::TGridEmulator rig(table, flat_->spec());
  const auto s = schedule(*flat_, CostModelKind::Profile);
  expect_golden("tgrid_zero_startup_table", rig.run(*dag_, s, 1));
}

/// One plan and one runner reused across experiment seeds (a, b, a) must
/// produce, run after run, exactly what a fresh replay of each seed does.
class ReplayReuse : public ReplayGolden {
 protected:
  static void expect_reuse_matches_fresh(const tgrid::TGridEmulator& rig,
                                         const sched::Schedule& s) {
    const simcore::ReplayPlan plan(*dag_, s, rig.spec());
    simcore::ReplayRunner runner;
    for (const std::uint64_t seed : {1u, 9001u, 1u}) {
      EXPECT_EQ(golden_text(rig.run(runner, plan, seed)),
                golden_text(rig.run(*dag_, s, seed)))
          << "seed " << seed;
    }
  }

  static void expect_reuse_matches_fresh(const exp::Lab& lab) {
    expect_reuse_matches_fresh(lab.rig(),
                               schedule(lab, CostModelKind::Profile));
  }
};

TEST_F(ReplayReuse, Bayreuth32) { expect_reuse_matches_fresh(*flat_); }

TEST_F(ReplayReuse, Hier4x8) { expect_reuse_matches_fresh(*oversub_); }

TEST_F(ReplayReuse, Hetero32) { expect_reuse_matches_fresh(*hetero_); }

TEST_F(ReplayReuse, ZeroStartupTable) {
  auto tables = machine::snapshot_tables(
      flat_->machine(), {{dag::TaskKernel::MatMul, 2000},
                         {dag::TaskKernel::MatAdd, 2000}});
  tables.startup.assign(tables.startup.size(), 0.0);
  const machine::TableMachineModel table(std::move(tables));
  const tgrid::TGridEmulator rig(table, flat_->spec());
  expect_reuse_matches_fresh(rig, schedule(*flat_, CostModelKind::Profile));
}

/// One plan on the rig's platform serving the simulator too: simulations
/// and experiments interleaved on it and on one runner (simulate, seed a,
/// simulate, seed b) must each equal a fresh Simulator::run(g, s) or
/// rig.run(g, s, seed).
class SharedCompile : public ReplayGolden {
 protected:
  static void expect_shared_matches_fresh(const tgrid::TGridEmulator& rig,
                                          const exp::Lab& lab) {
    for (const auto kind : models::all_kinds()) {
      const sim::Simulator simulator(lab.model(kind));
      const auto s = schedule(lab, kind);
      const std::string simulated = golden_text(simulator.run(*dag_, s));
      const simcore::ReplayPlan plan(*dag_, s, rig.spec());
      simcore::ReplayRunner runner;
      for (const std::uint64_t seed : {1u, 9001u}) {
        EXPECT_EQ(golden_text(simulator.run(runner, plan)), simulated)
            << models::kind_name(kind) << " before seed " << seed;
        EXPECT_EQ(golden_text(rig.run(runner, plan, seed)),
                  golden_text(rig.run(*dag_, s, seed)))
            << models::kind_name(kind) << " seed " << seed;
      }
    }
  }

  static void expect_shared_matches_fresh(const exp::Lab& lab) {
    expect_shared_matches_fresh(lab.rig(), lab);
  }
};

TEST_F(SharedCompile, Bayreuth32) { expect_shared_matches_fresh(*flat_); }

TEST_F(SharedCompile, Hier4x8) { expect_shared_matches_fresh(*oversub_); }

TEST_F(SharedCompile, Hetero32) { expect_shared_matches_fresh(*hetero_); }

TEST_F(SharedCompile, ZeroStartupTable) {
  auto tables = machine::snapshot_tables(
      flat_->machine(), {{dag::TaskKernel::MatMul, 2000},
                         {dag::TaskKernel::MatAdd, 2000}});
  tables.startup.assign(tables.startup.size(), 0.0);
  const machine::TableMachineModel table(std::move(tables));
  const tgrid::TGridEmulator rig(table, flat_->spec());
  expect_shared_matches_fresh(rig, *flat_);
}

TEST_F(SharedCompile, RejectsAReplayOfAnotherPlatform) {
  const auto s = schedule(*flat_, CostModelKind::Profile);
  const simcore::ReplayPlan plan(*dag_, s, hetero_->spec());
  simcore::ReplayRunner runner;
  const sim::Simulator simulator(flat_->model(CostModelKind::Profile));
  EXPECT_THROW(simulator.run(runner, plan), core::InvalidArgument);
  EXPECT_THROW(flat_->rig().run(runner, plan, 1), core::InvalidArgument);
}

/// One immutable plan replayed on four runners on four threads at once,
/// each thread taking simulations and experiments of seeds 1 and 9001 in
/// its own order: every trace must equal the sequential replay's bytes.
class ConcurrentRunners : public ReplayGolden {
 protected:
  static void expect_concurrent_matches_sequential(const exp::Lab& lab) {
    const sim::Simulator simulator(lab.model(CostModelKind::Profile));
    const auto s = schedule(lab, CostModelKind::Profile);
    const simcore::ReplayPlan plan(*dag_, s, lab.spec());
    // Job 0 simulates, jobs 1 and 2 run experiment seeds 1 and 9001.
    const std::uint64_t seeds[] = {0, 1, 9001};
    const std::string want[] = {golden_text(simulator.run(*dag_, s)),
                                golden_text(lab.rig().run(*dag_, s, 1)),
                                golden_text(lab.rig().run(*dag_, s, 9001))};
    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    std::latch start(kThreads);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        simcore::ReplayRunner runner;
        start.arrive_and_wait();
        for (int k = 0; k < kRounds * 3; ++k) {
          const int job = (i + k) % 3;
          const sched::RunTrace& trace =
              job == 0 ? simulator.run(runner, plan)
                       : lab.rig().run(runner, plan, seeds[job]);
          if (golden_text(trace) != want[job]) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
};

TEST_F(ConcurrentRunners, Bayreuth32) {
  expect_concurrent_matches_sequential(*flat_);
}

TEST_F(ConcurrentRunners, Hier4x8) {
  expect_concurrent_matches_sequential(*oversub_);
}

}  // namespace
