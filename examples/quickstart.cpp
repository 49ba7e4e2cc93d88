// Quickstart: the whole pipeline on one random mixed-parallel application.
//
//   1. generate a random DAG of moldable matrix tasks (paper Table I);
//   2. build the laboratory: ground-truth cluster + the three simulator
//      cost models (analytical, profile-based, empirical);
//   3. schedule the DAG with HCPA and MCPA under each model;
//   4. simulate each schedule and execute it "for real" on the TGrid
//      emulator; compare makespans and verdicts.
//
// Run:  ./quickstart [seed]
#include <cstdint>
#include <iostream>

#include "mtsched/core/table.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"

int main(int argc, char** argv) {
  using namespace mtsched;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  // 1. One Table I instance: width 4, half additions, n = 2000.
  dag::DagGenParams params;
  params.width = 4;
  params.add_ratio = 0.5;
  params.matrix_dim = 2000;
  params.seed = seed;
  const auto instance = dag::generate_random_dag(params);
  std::cout << "generated DAG " << instance.name << ": "
            << instance.graph.num_tasks() << " tasks, "
            << instance.graph.num_edges() << " edges, "
            << instance.graph.num_levels() << " levels\n\n";
  std::cout << dag::to_text(instance.graph) << '\n';

  // 2. The laboratory (includes the profiling campaign of Section VI).
  std::cout << "building lab (brute-force profiling campaign)...\n\n";
  exp::Lab lab;

  // 3+4. Schedule, simulate, execute under each cost model: a campaign
  // over a one-DAG suite, HCPA vs MCPA by default.
  exp::CampaignSpec spec;
  spec.suites = {exp::SuiteSpec{seed, {instance}}};
  spec.models = exp::lab_models(lab, models::all_kinds());
  spec.exp_seeds = {42};
  const auto campaign = exp::Campaign(lab.rig()).run(spec);

  core::TextTable table;
  table.set_header({"model", "algo", "alloc", "sim [s]", "exp [s]",
                    "err % (of sim)"});
  for (const auto& model : spec.models) {
    const auto outcome =
        campaign.case_study(model.label, "HCPA", "MCPA", seed, 42).outcomes[0];
    for (const exp::RunRecord* a : {&outcome.first, &outcome.second}) {
      std::string alloc;
      for (std::size_t i = 0; i < a->allocation.size(); ++i) {
        alloc += (i ? "," : "") + std::to_string(a->allocation[i]);
      }
      table.add_row({model.label, a->algorithm, alloc,
                     core::fmt(a->makespan_sim, 1),
                     core::fmt(a->makespan_exp, 1),
                     core::fmt(a->sim_error_percent(), 1)});
    }
    std::cout << model.label << ": simulation says "
              << (outcome.rel_sim() < 0 ? "HCPA" : "MCPA")
              << " wins, experiment says "
              << (outcome.rel_exp() < 0 ? "HCPA" : "MCPA")
              << (outcome.verdict_flip() ? "  -- VERDICT FLIP" : "") << '\n';
  }
  std::cout << '\n' << table.render();
  return 0;
}
