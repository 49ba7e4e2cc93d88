// Hierarchical network platforms: the paper's HCPA-vs-MCPA case study
// re-run on rack topologies (extension; ROADMAP "Hierarchical network
// platforms").
//
// The full Table I suite is scheduled and executed on platforms built
// from identical node hardware but increasingly constricted networks:
//   flat        - bayreuth32, the paper's 32-node star
//   hier2x16    - 2 racks x 16 nodes, non-oversubscribed uplinks
//   hier4x8     - 4 racks x 8 nodes, 4:1 oversubscribed uplinks
//   hier4x8x16  - the same racks at 16:1
//   hier4x8x64  - and at 64:1
// Cross-rack redistributions contend on the rack uplinks (and the core),
// so redistribution costs — and with them the HCPA-vs-MCPA verdict —
// depend on the network: the 16:1 platform must change the winner on at
// least one DAG relative to the flat star, or this bench fails. A second
// table shows what the rack-locality-aware mapper buys on the most
// oversubscribed fabric against the placement-blind strategies.
//
// The BENCH_hier_virtual_cluster.json report carries "hier_map/*"
// throughput rows (list mapping on the 4-rack platform, per strategy)
// gated in CI by check_baseline.py against the committed baseline.
#include <chrono>

#include "bench_util.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/stats/summary.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;

/// HCPA vs MCPA on one platform: the standard paired campaign over the
/// sampled suite, analytical model, identical weather across platforms.
exp::CaseStudyResult run_pair(const machine::MachineModel& machine_model,
                              const platform::ClusterSpec& spec,
                              const exp::SuiteSpec& sampled) {
  const tgrid::TGridEmulator rig(machine_model, spec);
  const models::AnalyticalModel model(spec);
  exp::CampaignSpec cspec;
  cspec.suites = {sampled};
  cspec.models = {{"analytical", &model}};
  cspec.exp_seeds = {bench::kExpSeed};
  cspec.threads = bench::bench_threads();
  cspec.algorithms = {exp::AlgoSpec::allocator("HCPA"),
                      exp::AlgoSpec::allocator("MCPA")};
  const auto result = exp::Campaign(rig).run(cspec);
  std::cerr << result.metrics.describe();
  if (bench::Reporter* r = bench::Reporter::current()) {
    r->note_campaign(result.metrics);
  }
  return result.case_study("analytical", "HCPA", "MCPA", bench::kSuiteSeed,
                           bench::kExpSeed);
}

}  // namespace

int main() {
  bench::Reporter report("hier_virtual_cluster");
  bench::banner("Hierarchical networks — HCPA vs MCPA across rack fabrics",
                "extension; racks/ToR/core on the paper's Section III "
                "cluster");

  const machine::JavaClusterModel machine_model;  // 32 reference nodes

  // The full 54-DAG Table I suite: verdict changes live in the DAGs where
  // HCPA and MCPA are nearly tied, and sampling would miss most of them.
  exp::SuiteSpec sampled;
  sampled.seed = bench::kSuiteSeed;
  sampled.dags = dag::generate_table1_suite();

  struct PlatformCase {
    std::string label;
    platform::ClusterSpec spec;
  };
  const std::vector<PlatformCase> platforms = {
      {"flat", platform::bayreuth32()},
      {"hier2x16", *platform::named_platform("hier2x16")},
      {"hier4x8", *platform::named_platform("hier4x8")},
      {"hier4x8x16", platform::to_cluster(
                         platform::hierarchical_topology(4, 8, 16.0))},
      {"hier4x8x64", platform::to_cluster(
                         platform::hierarchical_topology(4, 8, 64.0))},
  };

  // --- Table 1: the verdict across network fabrics -----------------------
  core::TextTable t;
  t.set_header({"platform", "HCPA mean [s]", "MCPA mean [s]", "MCPA wins",
                "verdicts changed vs flat"});
  std::vector<bool> flat_verdicts;  // per-DAG "MCPA wins" on the star
  int changed_on_oversubscribed = -1;
  for (const auto& pc : platforms) {
    const auto cs = run_pair(machine_model, pc.spec, sampled);
    std::vector<double> hcpa_mk, mcpa_mk;
    std::vector<bool> verdicts;
    int mcpa_wins = 0;
    for (const auto& o : cs.outcomes) {
      hcpa_mk.push_back(o.first.makespan_exp);
      mcpa_mk.push_back(o.second.makespan_exp);
      const bool mcpa_win = o.second.makespan_exp < o.first.makespan_exp;
      verdicts.push_back(mcpa_win);
      if (mcpa_win) ++mcpa_wins;
    }
    int changed = 0;
    if (flat_verdicts.empty()) {
      flat_verdicts = verdicts;
    } else {
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i] != flat_verdicts[i]) ++changed;
      }
    }
    if (pc.label == "hier4x8x16") changed_on_oversubscribed = changed;
    report.set("makespan_exp.hcpa_mean." + pc.label, stats::mean(hcpa_mk));
    report.set("makespan_exp.mcpa_mean." + pc.label, stats::mean(mcpa_mk));
    report.set("verdict_changes_vs_flat." + pc.label,
               static_cast<double>(changed));
    t.add_row({pc.label, core::fmt(stats::mean(hcpa_mk), 1),
               core::fmt(stats::mean(mcpa_mk), 1),
               std::to_string(mcpa_wins) + "/" +
                   std::to_string(verdicts.size()),
               pc.label == "flat" ? "-" : std::to_string(changed)});
  }
  std::cout << t.render() << '\n';

  // --- Table 2: mapping strategies on the oversubscribed fabric ----------
  const auto& spec4 = platforms.back().spec;
  {
    const tgrid::TGridEmulator rig(machine_model, spec4);
    const models::AnalyticalModel model(spec4);
    exp::CampaignSpec cspec;
    cspec.suites = {sampled};
    cspec.models = {{"analytical", &model}};
    cspec.exp_seeds = {bench::kExpSeed};
    cspec.threads = bench::bench_threads();
    for (const auto strategy : {sched::MappingStrategy::EarliestStart,
                                sched::MappingStrategy::RedistributionAware,
                                sched::MappingStrategy::RackAware}) {
      auto algo = exp::AlgoSpec::allocator(
          "HCPA", strategy,
          std::string("HCPA/") + sched::mapping_name(strategy));
      algo.seed_slot = 0;  // identical weather: only the mapping varies
      cspec.algorithms.push_back(std::move(algo));
    }
    const auto result = exp::Campaign(rig).run(cspec);
    std::cerr << result.metrics.describe();
    report.note_campaign(result.metrics);

    core::TextTable t2;
    t2.set_header({"mapping (" + platforms.back().label + ")",
                   "mean makespan [s]", "wins vs earliest"});
    bool base_row_written = false;
    for (const char* label : {"HCPA/redist_aware", "HCPA/rack_aware"}) {
      const auto cs = result.case_study("analytical", "HCPA/earliest", label,
                                        bench::kSuiteSeed, bench::kExpSeed);
      std::vector<double> mk;
      int wins = 0;
      if (!base_row_written) {
        std::vector<double> base_mk;
        for (const auto& o : cs.outcomes) {
          base_mk.push_back(o.first.makespan_exp);
        }
        t2.add_row({"earliest", core::fmt(stats::mean(base_mk), 1), "-"});
        report.set("makespan_exp.mean.HCPA/earliest", stats::mean(base_mk));
        base_row_written = true;
      }
      for (const auto& o : cs.outcomes) {
        mk.push_back(o.second.makespan_exp);
        if (o.second.makespan_exp < o.first.makespan_exp) ++wins;
      }
      report.set(std::string("makespan_exp.mean.") + label, stats::mean(mk));
      t2.add_row({label + 5, core::fmt(stats::mean(mk), 1),
                  std::to_string(wins) + "/" + std::to_string(mk.size())});
    }
    std::cout << t2.render() << '\n';
  }

  // --- hier_map/* throughput rows (CI baseline gate) ---------------------
  {
    dag::DagGenParams p;
    p.num_tasks = 400;
    p.width = 6;
    p.add_ratio = 0.4;
    p.matrix_dim = 2000;
    p.seed = 13;
    const auto inst = dag::generate_random_dag(p);
    const models::AnalyticalModel model(spec4);
    const models::SchedCostAdapter cost(model);
    const auto alloc =
        sched::HcpaAllocator{}.allocate(inst.graph, cost, spec4.num_nodes);
    for (const auto strategy : {sched::MappingStrategy::EarliestStart,
                                sched::MappingStrategy::RedistributionAware,
                                sched::MappingStrategy::RackAware}) {
      const sched::ListMapper mapper(strategy, spec4);
      (void)mapper.map(inst.graph, alloc, cost, spec4.num_nodes);  // warm-up
      using Clock = std::chrono::steady_clock;
      const auto t0 = Clock::now();
      int iters = 0;
      double seconds = 0.0;
      do {
        (void)mapper.map(inst.graph, alloc, cost, spec4.num_nodes);
        ++iters;
        seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      } while (seconds < 0.2 || iters < 10);
      report.add_throughput(
          {std::string("hier_map/") + sched::mapping_name(strategy),
           seconds / iters, p.num_tasks * iters / seconds});
    }
  }

  std::cout << "Uplink contention raises every makespan on the rack "
               "fabrics; from 16:1\noversubscription on it also moves the "
               "HCPA-vs-MCPA frontier (verdicts\nchange vs the flat star) "
               "and rack-aware mapping claws back part of the\ncross-rack "
               "redistribution cost.\n";

  if (changed_on_oversubscribed < 1) {
    std::cerr << "FAIL: expected >= 1 HCPA-vs-MCPA verdict change between "
                 "the flat star and hier4x8x16, got "
              << changed_on_oversubscribed << '\n';
    return 1;
  }
  return 0;
}
