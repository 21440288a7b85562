#include "wrht/core/analysis.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"

namespace wrht::core {

std::uint32_t ceil_log(std::uint32_t base, std::uint64_t n) {
  require(base >= 2, "ceil_log: base must be >= 2");
  require(n >= 1, "ceil_log: n must be >= 1");
  std::uint32_t levels = 0;
  std::uint64_t reach = 1;
  while (reach < n) {
    reach *= base;
    ++levels;
  }
  return std::max(levels, 1u);
}

WrhtStepPlan wrht_plan(std::uint32_t num_nodes, std::uint32_t group_size,
                       std::uint32_t wavelengths) {
  // build_hierarchy's checks, so bad input fails the same way.
  require(num_nodes >= 2, "build_hierarchy: need at least 2 nodes");
  require(group_size >= 2, "build_hierarchy: group size must be >= 2");
  require(wavelengths >= 1, "build_hierarchy: need at least 1 wavelength");

  // k is the current level's width; see build_hierarchy for the balanced
  // partition whose largest group this computes.
  WrhtStepPlan plan;
  std::uint64_t lambda = 0;
  std::uint64_t k = num_nodes;
  while (k > 1) {
    if (all_to_all_wavelengths(k) <= wavelengths) {
      plan.final_all_to_all = true;
      lambda = std::max(lambda, all_to_all_wavelengths(k));
      break;
    }
    const std::uint64_t groups = (k + group_size - 1) / group_size;
    const std::uint64_t largest = (k + groups - 1) / groups;
    lambda = std::max(lambda, group_wavelengths(largest));
    ++plan.grouping_levels;
    k = groups;
  }
  plan.final_reps = static_cast<std::uint32_t>(k);
  plan.reduce_steps = plan.grouping_levels + (plan.final_all_to_all ? 1 : 0);
  plan.broadcast_steps = plan.grouping_levels;
  plan.total_steps = plan.reduce_steps + plan.broadcast_steps;
  plan.wavelengths_required = std::max<std::uint64_t>(lambda, 1);
  return plan;
}

std::uint64_t wrht_steps_upper(std::uint32_t num_nodes,
                               std::uint32_t group_size) {
  return 2ull * ceil_log(group_size, num_nodes);
}

std::uint64_t wrht_min_steps(std::uint32_t num_nodes,
                             std::uint32_t wavelengths) {
  require(wavelengths >= 1, "wrht_min_steps: need >= 1 wavelength");
  return 2ull * ceil_log(2 * wavelengths + 1, num_nodes);
}

Seconds comm_time(std::uint64_t steps, Bytes payload, const TimeModel& model) {
  require(model.bytes_per_second > 0.0, "comm_time: rate must be positive");
  const double data_term = static_cast<double>(steps) *
                           static_cast<double>(payload.count()) /
                           model.bytes_per_second;
  return Seconds(data_term) +
         model.per_step_overhead * static_cast<double>(steps);
}

Seconds wrht_optimal_time(std::uint32_t num_nodes, std::uint32_t wavelengths,
                          Bytes payload, const TimeModel& model) {
  return comm_time(wrht_min_steps(num_nodes, wavelengths), payload, model);
}

}  // namespace wrht::core
