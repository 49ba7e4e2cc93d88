// Rendering of case-study results in the paper's figure formats: sorted
// paired bar charts (Figures 1/5/7), error box plots (Figure 8), and CSV
// emission for external plotting.
#pragma once

#include <string>
#include <vector>

#include "mtsched/exp/campaign.hpp"

namespace mtsched::exp {

/// Figures 1/5/7: one row per DAG, sorted by increasing simulated relative
/// makespan, simulation and experiment bars side by side; the footer
/// reports the verdict-flip count.
std::string render_relative_makespan_figure(
    const std::vector<const DagOutcome*>& outcomes, const std::string& title);

/// CSV: dag,rel_sim,rel_exp,flip,mk_sim_first,mk_exp_first,...
std::string relative_makespan_csv(
    const std::vector<const DagOutcome*>& outcomes);

/// Figure 8: box-and-whisker rows of sim_error_percent for each result
/// set (one per cost model), separately for the first and second
/// algorithm.
std::string render_error_boxplots(const std::vector<CaseStudyResult>& results);

/// Flip count among the given outcomes.
int count_flips(const std::vector<const DagOutcome*>& outcomes);

}  // namespace mtsched::exp
