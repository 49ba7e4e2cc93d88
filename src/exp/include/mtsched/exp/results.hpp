// Structured campaign output: a stable JSON document and a flat CSV, both
// deterministic — two campaign runs of the same spec serialize to
// byte-identical text regardless of thread count (doubles are rendered as
// shortest round-trip decimals, so equal values always print equally; the
// writers exclude wall-clock metrics and thread counts by design).
#pragma once

#include <string>
#include <vector>

#include "mtsched/exp/campaign.hpp"

namespace mtsched::exp {

/// The whole campaign as one JSON document:
///   {
///     "schema": "mtsched.campaign.v1",
///     "spec": { "suite_seeds": [...], "algorithms": [...],
///               "models": [...], "dims": [...], "exp_seeds": [...] },
///     "jobs": N, "cache": {"hits": H, "misses": M},
///     "runs": [ {"suite_seed":..., "dag":"...", "dim":...,
///                "model":"...", "algorithm":"...", "exp_seed":...,
///                "run_seed":..., "allocation":[...],
///                "makespan_sim":..., "makespan_exp":...,
///                "sim_error_percent":...}, ... ]
///   }
/// `spec` is echoed as labels/seeds only (the defaults already resolved);
/// runs appear in record order.
std::string to_json(const CampaignSpec& spec, const CampaignResult& result);

/// One CSV row per record:
///   suite_seed,dag,dim,model,algorithm,exp_seed,run_seed,allocation,
///   makespan_sim,makespan_exp,sim_error_percent
/// `allocation` is '|'-separated per-task processor counts. Labels must
/// not contain commas (the built-in labels never do).
std::string to_csv(const std::vector<RunRecord>& records);

}  // namespace mtsched::exp
