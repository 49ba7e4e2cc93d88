// Max-min fair rate allocation by progressive filling.
//
// This is the bandwidth/CPU-sharing model at the heart of flow-level
// simulators such as SimGrid: every active activity i gets a progress rate
// rho_i, consuming w_{i,r} * rho_i of each resource r it uses, subject to
// capacity constraints sum_i w_{i,r} * rho_i <= C_r. The allocation is
// max-min fair: rates are raised uniformly until some resource saturates,
// activities bottlenecked there are frozen, and filling continues for the
// rest. The result is Pareto-optimal and unique.
//
// Two entry points share the algorithm:
//   * solve_max_min() — one-shot, validating, allocates its own workspace.
//     Used by tests and the solver micro-bench.
//   * MaxMinSolver — the engine's hot path. The primary overload takes the
//     usage lists as one CSR view (offsets + flat resource/weight arrays):
//     the free-capacity sweep and the binding/freeze relaxation then
//     stream over contiguous memory with no per-activity pointer chase.
//     The solver holds per-resource load and free-capacity accumulators
//     plus the shrinking unfrozen-activity list across rounds *and across
//     solves*, so a solve allocates nothing and each filling round touches
//     only still-unfrozen activities and the resources they load. The
//     arithmetic is identical to the one-shot path operation for operation
//     — same summation order, same comparisons — so all paths produce
//     bit-identical rates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mtsched::simcore {

/// One activity's usage of one resource (weight must be > 0).
struct Use {
  std::size_t resource;
  double weight;
};

/// Problem: resource capacities plus per-activity usage lists.
struct MaxMinProblem {
  std::vector<double> capacities;
  std::vector<std::vector<Use>> activities;  ///< usage list per activity
};

/// Usage lists in CSR form: activity i uses resource[k] with weight[k]
/// for k in [offsets[i], offsets[i+1]). offsets has num_activities + 1
/// entries; an empty range means a usage-free activity.
struct UsesView {
  std::span<const std::uint32_t> offsets;
  std::span<const std::uint32_t> resource;
  std::span<const double> weight;

  std::size_t num_activities() const { return offsets.size() - 1; }
};

/// Reusable progressive-filling solver. Inputs are NOT validated here —
/// callers must guarantee positive capacities/weights and in-range
/// resource indices (the engine checks them once at
/// add_resource()/submit() time).
class MaxMinSolver {
 public:
  /// Solves for the max-min fair rates of the CSR usage lists against
  /// `capacities`, writing one rate per activity into `rates` (which the
  /// caller sizes to uses.num_activities()). Activities with an empty
  /// usage range receive an infinite rate.
  void solve(std::span<const double> capacities, const UsesView& uses,
             std::span<double> rates);

  /// Pointer-per-activity convenience overload (tests, ad-hoc callers):
  /// packs the lists into an internal CSR buffer and runs the primary
  /// overload. nullptr entries are not allowed; pass a pointer to an
  /// empty vector for usage-free activities.
  void solve(const std::vector<double>& capacities,
             const std::vector<const std::vector<Use>*>& activities,
             std::vector<double>& rates);

 private:
  std::vector<double> free_cap_;       ///< capacity minus frozen usage
  std::vector<double> load_;           ///< unfrozen weight sums (sparse)
  std::vector<std::uint8_t> binding_;  ///< saturated-this-round flags
  std::vector<std::size_t> touched_;   ///< resources with load > 0
  std::vector<std::size_t> unfrozen_;  ///< activity indices, ascending

  // CSR packing scratch for the pointer-per-activity overload.
  std::vector<std::uint32_t> pack_off_;
  std::vector<std::uint32_t> pack_res_;
  std::vector<double> pack_w_;
};

/// Solves for the max-min fair rates. Activities with an empty usage list
/// receive an infinite rate, reported as
/// std::numeric_limits<double>::infinity(). Throws core::InvalidArgument on
/// non-positive capacities or weights, or out-of-range resource indices.
std::vector<double> solve_max_min(const MaxMinProblem& problem);

}  // namespace mtsched::simcore
