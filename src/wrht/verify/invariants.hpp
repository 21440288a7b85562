// Invariant checkers for schedules, hierarchies and wavelength assignments.
//
// Each checker re-derives a property the construction code claims by
// design and reports every violation as a Finding:
//   * schedule structure  — node ids, element ranges, non-empty steps;
//   * conflict freedom    — every RWA round is independently re-verified
//     with optics::count_conflicts, rounds partition the step's transfers,
//     and the wavelength high-water mark respects the fiber budget;
//   * WRHT hierarchy      — groups partition each level, representatives
//     are group middles, balanced group sizes (differ by at most one),
//     levels chain through surviving representatives, and the final
//     all-to-all is only chosen when ceil(k^2/8) <= w;
//   * step counts         — generated schedule length equals the closed
//     form (wrht_plan), never exceeds the paper's 2*ceil(log_m N) upper
//     bound, and never beats the Lemma 1 lower bound by more than the
//     all-to-all saving of one step;
//   * wavelength discipline — the whole WRHT schedule executes in
//     single rounds within the documented operational budget of 1.5x the
//     analytic requirement (first-fit colouring slack, DESIGN.md).
#pragma once

#include <cstdint>

#include "wrht/collectives/schedule.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/grouping.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/verify/report.hpp"

namespace wrht::verify {

struct InvariantOptions {
  /// Fiber wavelength budget w the schedule must respect.
  std::uint32_t wavelengths = 64;
  optics::RwaPolicy rwa_policy = optics::RwaPolicy::kFirstFit;
};

/// Structural soundness: ids in range, ranges in bounds, no self
/// transfers, no empty steps. Mirrors Schedule::validate() but reports
/// findings instead of throwing, and adds the non-empty-step check.
[[nodiscard]] CheckResult check_schedule_structure(
    const coll::Schedule& schedule);

/// Runs RWA on every step (multi-round splitting allowed) and
/// independently re-verifies the result: each round must be conflict-free
/// under optics::count_conflicts, the rounds of a step must partition its
/// transfers, and no round may exceed the wavelength budget.
[[nodiscard]] CheckResult check_conflict_freedom(
    const coll::Schedule& schedule, std::uint32_t ring_size,
    const InvariantOptions& options);

/// Re-derives every structural property of the WRHT hierarchy for
/// (num_nodes, group_size, wavelengths).
[[nodiscard]] CheckResult check_wrht_hierarchy(std::uint32_t num_nodes,
                                               std::uint32_t group_size,
                                               std::uint32_t wavelengths);

/// Generated-schedule step count vs the closed form and the paper bounds.
[[nodiscard]] CheckResult check_wrht_step_count(const coll::Schedule& schedule,
                                                std::uint32_t num_nodes,
                                                std::uint32_t group_size,
                                                std::uint32_t wavelengths);

/// The generated WRHT schedule must execute in one round per step on a
/// double ring carrying ceil(1.5 * wavelengths_required) lambdas (the
/// operational first-fit bound); with the analytic requirement alone the
/// steps must still be carriable (multi-round splitting permitted).
[[nodiscard]] CheckResult check_wrht_wavelength_discipline(
    const coll::Schedule& schedule, std::uint32_t num_nodes,
    std::uint32_t group_size, std::uint32_t wavelengths);

/// All WRHT invariants for one configuration (hierarchy + step count +
/// wavelength discipline + structure + conflict freedom).
[[nodiscard]] CheckResult check_wrht_configuration(std::uint32_t num_nodes,
                                                   std::uint32_t group_size,
                                                   std::uint32_t wavelengths,
                                                   std::size_t elements);

}  // namespace wrht::verify
