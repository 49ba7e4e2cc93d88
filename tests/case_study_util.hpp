// Test helper: the paper's HCPA-vs-MCPA case study of a few DAGs under one
// cost model, run as a campaign and pivoted into the per-DAG view.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace mtsched::test_util {

/// The case study measured on `rig` instead of the lab's own.
inline exp::CaseStudyResult hcpa_vs_mcpa(const exp::Lab& lab,
                                         const tgrid::TGridEmulator& rig,
                                         models::CostModelKind kind,
                                         std::vector<dag::GeneratedDag> dags,
                                         std::uint64_t exp_seed) {
  exp::CampaignSpec spec;
  spec.suites = {exp::SuiteSpec{0, std::move(dags)}};
  spec.models = {exp::lab_model(lab, kind)};
  spec.exp_seeds = {exp_seed};
  return exp::Campaign(rig).run(spec).case_study(models::kind_name(kind),
                                                 "HCPA", "MCPA", 0, exp_seed);
}

inline exp::CaseStudyResult hcpa_vs_mcpa(const exp::Lab& lab,
                                         models::CostModelKind kind,
                                         std::vector<dag::GeneratedDag> dags,
                                         std::uint64_t exp_seed) {
  return hcpa_vs_mcpa(lab, lab.rig(), kind, std::move(dags), exp_seed);
}

}  // namespace mtsched::test_util
