// Closed-form analysis of WRHT (paper §4.2-4.3): step counts, wavelength
// requirements, the Lemma 1 lower bound on steps, the Theorem 1 lower bound
// on communication time, and the Eq. (6) communication-time model.
#pragma once

#include <cstdint>

#include "wrht/common/units.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::core {

/// ceil(log_base n): smallest L >= 1 with base^L >= n.
[[nodiscard]] std::uint32_t ceil_log(std::uint32_t base, std::uint64_t n);

/// Exact plan of the schedule wrht_allreduce builds with `allow_all_to_all`
/// on (the default), derived with the same rules, so `total_steps` equals
/// its length; with it off the schedule takes wrht_steps_upper's steps.
struct WrhtStepPlan {
  std::uint32_t grouping_levels = 0;   ///< hierarchy depth
  std::uint32_t reduce_steps = 0;      ///< grouping_levels (+1 if all-to-all)
  std::uint32_t broadcast_steps = 0;   ///< grouping_levels
  std::uint32_t total_steps = 0;       ///< theta in Eq. (6)
  bool final_all_to_all = false;
  std::uint32_t final_reps = 0;        ///< m* of §4.1.2
  /// Wavelengths the schedule needs: max(floor(m/2), ceil(m*^2/8) if
  /// all-to-all).
  std::uint64_t wavelengths_required = 0;
};

/// Runs build_hierarchy's recurrence on the level width alone: k nodes make
/// ceil(k/m) balanced groups, the largest of ceil(k/ceil(k/m)) members, and
/// the groups' reps are the next level. Costs O(levels) with no allocation;
/// bad input throws build_hierarchy's exceptions with its messages.
[[nodiscard]] WrhtStepPlan wrht_plan(std::uint32_t num_nodes,
                                     std::uint32_t group_size,
                                     std::uint32_t wavelengths);

/// Paper's closed form: theta = 2*ceil(log_m N) (no final all-to-all) or
/// 2*ceil(log_m N) - 1 (with it). This helper returns the *upper* variant;
/// use wrht_plan() for the exact per-configuration count.
[[nodiscard]] std::uint64_t wrht_steps_upper(std::uint32_t num_nodes,
                                             std::uint32_t group_size);

/// Lemma 1: the lower bound on WRHT steps with w wavelengths is
/// 2*ceil(log_{2w+1} N).
[[nodiscard]] std::uint64_t wrht_min_steps(std::uint32_t num_nodes,
                                           std::uint32_t wavelengths);

/// Cost parameters of the Eq. (6) time model: per-step overhead a and the
/// serialization rate for d bytes.
struct TimeModel {
  Seconds per_step_overhead{25e-6 + 497e-15};  ///< a = MRR reconfig + O/E/O
  /// Bytes drained per second per transfer; defaults to the paper's
  /// numeric convention (see net::RateConvention).
  double bytes_per_second = 40e9;
};

/// Eq. (6): T = theta * d / B + theta * a for a payload of `payload` bytes
/// per step and `steps` steps.
[[nodiscard]] Seconds comm_time(std::uint64_t steps, Bytes payload,
                                const TimeModel& model);

/// Theorem 1: lower bound on WRHT communication time for N nodes and w
/// wavelengths with per-node payload d.
[[nodiscard]] Seconds wrht_optimal_time(std::uint32_t num_nodes,
                                        std::uint32_t wavelengths,
                                        Bytes payload, const TimeModel& model);

}  // namespace wrht::core
