// Heterogeneous platforms: speed-blind scheduling vs HCPA's virtual-
// cluster homogenization (extension; the setting HCPA was designed for in
// the paper's reference [12]).
//
// For increasing speed skew, an HCPA allocation is mapped two ways onto a
// 32-node cluster whose node speeds spread around the same mean:
//   * speed-blind: pretend the cluster is homogeneous (P = 32, classic
//     EST mapping) — fast and slow nodes get mixed freely, and every
//     mixed set runs at its slowest member's pace;
//   * virtual cluster: allocate on floor(total/reference) virtual
//     processors, translate each allocation to physical nodes with enough
//     *discounted* aggregate speed, preferring similar-speed groups.
// Both schedules then run on the emulated heterogeneous cluster; each
// skew level is one campaign whose two "algorithms" are the custom
// mapping pipelines (seed slot 0: identical weather for both).
#include "bench_util.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/hetero.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/stats/summary.hpp"
#include "mtsched/tgrid/emulator.hpp"

int main() {
  const bench::Reporter report("hetero_virtual_cluster");
  using namespace mtsched;
  bench::banner("Heterogeneity — speed-blind vs virtual-cluster scheduling",
                "extension; HCPA's homogenization idea (paper ref. [12])");

  const auto suite = dag::generate_table1_suite();
  machine::JavaClusterConfig mcfg;  // reference machine behaviour
  const machine::JavaClusterModel machine_model(mcfg);

  // Every third Table I instance (one sample per parameter combination).
  exp::SuiteSpec sampled;
  sampled.seed = bench::kSuiteSeed;
  for (std::size_t i = 0; i < suite.size(); i += 3) {
    sampled.dags.push_back(suite[i]);
  }

  core::TextTable t;
  t.set_header({"skew (max/min)", "blind mean [s]", "virtual mean [s]",
                "mean gain %", "virtual wins"});
  for (double skew : {1.0, 2.0, 4.0, 8.0}) {
    auto spec = machine_model.platform_spec();
    if (skew > 1.0) {
      // Speeds spread uniformly in [lo, lo*skew] with mean = reference; the
      // reference speed is their true mean.
      const double lo = 2.0 * spec.reference_flops() / (1.0 + skew);
      spec = platform::heterogeneous_cluster(spec.num_nodes, lo, lo * skew,
                                             /*seed=*/5);
    }
    const tgrid::TGridEmulator rig(machine_model, spec);
    const models::AnalyticalModel model(spec);
    const sched::HcpaAllocator hcpa;
    const sched::VirtualCluster vc(spec);
    const sched::HeteroListMapper hetero_mapper(spec);

    exp::CampaignSpec cspec;
    cspec.suites = {sampled};
    cspec.models = {{"analytical", &model}};
    cspec.exp_seeds = {bench::kExpSeed};
    cspec.threads = bench::bench_threads();

    exp::AlgoSpec blind;
    blind.label = "blind";
    blind.seed_slot = 0;
    blind.schedule = [&hcpa](const dag::Dag& g,
                             const models::CostModel& m, int P) {
      const models::SchedCostAdapter cost(m);
      const auto alloc = hcpa.allocate(g, cost, P);
      return sched::ListMapper{}.map(g, alloc, cost, P);
    };
    exp::AlgoSpec virt;
    virt.label = "virtual";
    virt.seed_slot = 0;
    virt.schedule = [&hcpa, &vc, &hetero_mapper](
                        const dag::Dag& g, const models::CostModel& m,
                        int /*P*/) {
      const models::SchedCostAdapter cost(m);
      const auto valloc = hcpa.allocate(g, cost, vc.virtual_procs());
      return hetero_mapper.map(g, valloc, cost);
    };
    cspec.algorithms = {blind, virt};

    const auto campaign = exp::Campaign(rig).run(cspec);
    std::cerr << campaign.metrics.describe();
    const auto result = campaign.case_study("analytical", "blind", "virtual",
                                            bench::kSuiteSeed,
                                            bench::kExpSeed);

    std::vector<double> blind_mk, virt_mk, gains;
    int virt_wins = 0;
    for (const auto& o : result.outcomes) {
      const double mb = o.first.makespan_exp;
      const double mv = o.second.makespan_exp;
      blind_mk.push_back(mb);
      virt_mk.push_back(mv);
      gains.push_back((mb - mv) / mb * 100.0);
      if (mv < mb) ++virt_wins;
    }
    t.add_row({core::fmt(skew, 0), core::fmt(stats::mean(blind_mk), 1),
               core::fmt(stats::mean(virt_mk), 1),
               core::fmt(stats::mean(gains), 1),
               std::to_string(virt_wins) + "/" +
                   std::to_string(blind_mk.size())});
  }
  std::cout << t.render() << '\n';
  std::cout << "With no skew the two mappings coincide (gain ~ 0). As the "
               "spread grows,\n"
            << "speed-blind sets increasingly run at their slowest member's "
               "pace and the\n"
            << "virtual-cluster translation pulls ahead.\n";
  return 0;
}
