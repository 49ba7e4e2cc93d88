#include "mtsched/simcore/maxmin.hpp"

#include <algorithm>
#include <limits>

#include "mtsched/core/error.hpp"

namespace mtsched::simcore {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void MaxMinSolver::solve(std::span<const double> capacities,
                         const UsesView& uses, std::span<double> rates) {
  const std::size_t num_res = capacities.size();
  const std::size_t num_act = uses.num_activities();
  MTSCHED_INVARIANT(rates.size() == num_act, "rates span mis-sized");

  const std::uint32_t* off = uses.offsets.data();
  const std::uint32_t* res = uses.resource.data();
  const double* wgt = uses.weight.data();

  for (std::size_t i = 0; i < num_act; ++i) rates[i] = kInf;
  free_cap_.assign(capacities.begin(), capacities.end());
  // load_ and binding_ are all-zero between solves (each round resets
  // exactly the entries it touched), so only a resize is needed here.
  if (load_.size() != num_res) {
    load_.assign(num_res, 0.0);
    binding_.assign(num_res, 0);
  }
  unfrozen_.clear();
  for (std::size_t i = 0; i < num_act; ++i) {
    if (off[i + 1] > off[i]) unfrozen_.push_back(i);
  }

  while (!unfrozen_.empty()) {
    // Load accumulation: ascending activity order, exactly as a
    // from-scratch refill over the full list would sum it — but touching
    // only unfrozen activities and remembering which resources got load.
    touched_.clear();
    for (const std::size_t i : unfrozen_) {
      for (std::uint32_t k = off[i]; k < off[i + 1]; ++k) {
        if (load_[res[k]] == 0.0) touched_.push_back(res[k]);
        load_[res[k]] += wgt[k];
      }
    }
    // The binding resource gives the smallest uniform rate.
    double rho = kInf;
    for (const std::size_t r : touched_) {
      rho = std::min(rho, std::max(0.0, free_cap_[r]) / load_[r]);
    }
    MTSCHED_INVARIANT(rho < kInf, "unfrozen activity uses no loaded resource");

    // Identify the binding resources from the pre-freeze snapshot, then
    // freeze every unfrozen activity touching one of them.
    for (const std::size_t r : touched_) {
      binding_[r] = std::max(0.0, free_cap_[r]) / load_[r] <= rho * (1.0 + 1e-12)
                        ? 1
                        : 0;
    }
    bool froze_any = false;
    std::size_t keep = 0;
    for (const std::size_t i : unfrozen_) {
      bool hit = false;
      for (std::uint32_t k = off[i]; k < off[i + 1]; ++k) {
        if (binding_[res[k]] != 0) {
          hit = true;
          break;
        }
      }
      if (hit) {
        rates[i] = rho;
        froze_any = true;
        for (std::uint32_t k = off[i]; k < off[i + 1]; ++k) {
          free_cap_[res[k]] -= wgt[k] * rho;
        }
      } else {
        unfrozen_[keep++] = i;
      }
    }
    unfrozen_.resize(keep);
    MTSCHED_INVARIANT(froze_any, "progressive filling made no progress");
    // Restore the all-zero invariant for the next round/solve.
    for (const std::size_t r : touched_) {
      load_[r] = 0.0;
      binding_[r] = 0;
    }
  }
}

void MaxMinSolver::solve(const std::vector<double>& capacities,
                         const std::vector<const std::vector<Use>*>& activities,
                         std::vector<double>& rates) {
  const std::size_t num_act = activities.size();
  pack_off_.clear();
  pack_res_.clear();
  pack_w_.clear();
  pack_off_.reserve(num_act + 1);
  pack_off_.push_back(0);
  for (const auto* uses : activities) {
    for (const auto& u : *uses) {
      pack_res_.push_back(static_cast<std::uint32_t>(u.resource));
      pack_w_.push_back(u.weight);
    }
    pack_off_.push_back(static_cast<std::uint32_t>(pack_res_.size()));
  }
  rates.resize(num_act);
  solve(std::span<const double>(capacities),
        UsesView{pack_off_, pack_res_, pack_w_},
        std::span<double>(rates));
}

std::vector<double> solve_max_min(const MaxMinProblem& problem) {
  const std::size_t num_res = problem.capacities.size();
  for (double c : problem.capacities)
    MTSCHED_REQUIRE(c > 0.0, "resource capacities must be positive");
  for (const auto& uses : problem.activities) {
    for (const auto& u : uses) {
      MTSCHED_REQUIRE(u.resource < num_res, "resource index out of range");
      MTSCHED_REQUIRE(u.weight > 0.0, "usage weights must be positive");
    }
  }

  std::vector<const std::vector<Use>*> views;
  views.reserve(problem.activities.size());
  for (const auto& uses : problem.activities) views.push_back(&uses);

  MaxMinSolver solver;
  std::vector<double> rates;
  solver.solve(problem.capacities, views, rates);
  return rates;
}

}  // namespace mtsched::simcore
