#include "wrht/verify/invariants.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/lightpath.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::verify {

namespace {

std::string at_step(std::size_t s) { return " in step " + std::to_string(s); }

/// ceil(1.5 * x): the operational first-fit colouring budget (DESIGN.md).
std::uint64_t operational_budget(std::uint64_t analytic) {
  return (3 * analytic + 1) / 2;
}

}  // namespace

CheckResult check_schedule_structure(const coll::Schedule& schedule) {
  CheckResult result;
  const std::uint32_t n = schedule.num_nodes();
  const std::size_t elements = schedule.elements();
  const auto& steps = schedule.steps();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (steps[s].transfers.empty()) {
      result.add("invariant.structure.empty_step",
                 "step " + std::to_string(s) + " moves nothing");
      continue;
    }
    for (const coll::Transfer& t : steps[s].transfers) {
      if (t.src >= n || t.dst >= n) {
        result.add("invariant.structure.node_range",
                   "transfer " + std::to_string(t.src) + "->" +
                       std::to_string(t.dst) + " exceeds " +
                       std::to_string(n) + " nodes" + at_step(s));
      }
      if (t.src == t.dst) {
        result.add("invariant.structure.self_transfer",
                   "node " + std::to_string(t.src) + " sends to itself" +
                       at_step(s));
      }
      // offset + count can wrap; compare against what is left instead.
      if (t.count == 0 || t.offset > elements ||
          t.count > elements - t.offset) {
        result.add("invariant.structure.element_range",
                   std::to_string(t.count) + " element(s) at offset " +
                       std::to_string(t.offset) + " outside " +
                       std::to_string(elements) + " elements" + at_step(s));
      }
    }
  }
  return result;
}

CheckResult check_conflict_freedom(const coll::Schedule& schedule,
                                   std::uint32_t ring_size,
                                   const InvariantOptions& options) {
  CheckResult result;
  const topo::Ring ring(ring_size);
  optics::RwaOptions rwa;
  rwa.wavelengths = options.wavelengths;
  rwa.policy = options.rwa_policy;
  // Random-fit draws wavelengths; seed deterministically so the check is
  // reproducible.
  Rng rng;
  Rng* rng_ptr = rwa.policy == optics::RwaPolicy::kRandomFit ? &rng : nullptr;

  const auto& steps = schedule.steps();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const auto& transfers = steps[s].transfers;
    if (transfers.empty()) continue;
    optics::RoundsResult rounds;
    try {
      rounds = optics::assign_rounds(ring, transfers, rwa, rng_ptr);
    } catch (const Error& e) {
      result.add("invariant.rwa.infeasible", std::string(e.what()) + at_step(s));
      continue;
    }

    // Rounds must partition the step's transfers.
    std::vector<std::uint32_t> seen(transfers.size(), 0);
    for (const auto& round : rounds.rounds) {
      for (const std::size_t idx : round) {
        if (idx >= transfers.size()) {
          result.add("invariant.rwa.partition",
                     "round references transfer " + std::to_string(idx) +
                         " of " + std::to_string(transfers.size()) +
                         at_step(s));
        } else {
          ++seen[idx];
        }
      }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] != 1) {
        result.add("invariant.rwa.partition",
                   "transfer " + std::to_string(i) + " scheduled " +
                       std::to_string(seen[i]) + " times" + at_step(s));
      }
    }

    // Every round independently re-verified: endpoints match, budget
    // respected, and zero conflicting lightpath pairs.
    for (std::size_t r = 0; r < rounds.paths.size(); ++r) {
      const auto& paths = rounds.paths[r];
      const auto& members = rounds.rounds[r];
      for (std::size_t i = 0; i < paths.size() && i < members.size(); ++i) {
        const coll::Transfer& t = transfers[members[i]];
        if (paths[i].src != t.src || paths[i].dst != t.dst) {
          result.add("invariant.rwa.endpoints",
                     "lightpath " + std::to_string(paths[i].src) + "->" +
                         std::to_string(paths[i].dst) +
                         " does not carry transfer " +
                         std::to_string(t.src) + "->" +
                         std::to_string(t.dst) + at_step(s));
        }
        if (t.direction && paths[i].direction != *t.direction) {
          result.add("invariant.rwa.direction_hint",
                     "transfer " + std::to_string(t.src) + "->" +
                         std::to_string(t.dst) +
                         " routed against its direction hint" + at_step(s));
        }
        if (paths[i].wavelength >= options.wavelengths) {
          result.add("invariant.rwa.budget",
                     "wavelength " + std::to_string(paths[i].wavelength) +
                         " exceeds budget " +
                         std::to_string(options.wavelengths) + at_step(s));
        }
      }
      const std::size_t conflicts = optics::count_conflicts(paths, ring_size);
      if (conflicts != 0) {
        result.add("invariant.rwa.conflict",
                   std::to_string(conflicts) + " conflicting lightpath " +
                       "pair(s) in round " + std::to_string(r) + at_step(s));
      }
    }
  }
  return result;
}

CheckResult check_wrht_hierarchy(std::uint32_t num_nodes,
                                 std::uint32_t group_size,
                                 std::uint32_t wavelengths) {
  CheckResult result;
  const core::Hierarchy h =
      core::build_hierarchy(num_nodes, group_size, wavelengths);

  std::vector<core::NodeId> expected(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) expected[i] = i;

  for (std::size_t l = 0; l < h.levels.size(); ++l) {
    const auto& groups = h.levels[l].groups;
    const std::string at_level = " at level " + std::to_string(l);

    // The all-to-all cutoff must not have been available when this level
    // was built, or the hierarchy stopped one level too late.
    if (core::all_to_all_wavelengths(expected.size()) <= wavelengths) {
      result.add("invariant.hierarchy.missed_cutoff",
                 std::to_string(expected.size()) +
                     " nodes already fit the all-to-all budget" + at_level);
    }

    const std::size_t want_groups =
        (expected.size() + group_size - 1) / group_size;
    if (groups.size() != want_groups) {
      result.add("invariant.hierarchy.group_count",
                 std::to_string(groups.size()) + " groups, want ceil(" +
                     std::to_string(expected.size()) + "/" +
                     std::to_string(group_size) + ") = " +
                     std::to_string(want_groups) + at_level);
    }

    // Groups must partition the level's input in ring order, with balanced
    // sizes (differ by at most one) and middle representatives.
    std::size_t cursor = 0;
    std::size_t min_size = num_nodes + 1;
    std::size_t max_size = 0;
    std::vector<core::NodeId> reps;
    for (const core::Group& g : groups) {
      min_size = std::min(min_size, g.members.size());
      max_size = std::max(max_size, g.members.size());
      if (g.members.size() > group_size) {
        result.add("invariant.hierarchy.group_size",
                   "group of " + std::to_string(g.members.size()) +
                       " exceeds m = " + std::to_string(group_size) +
                       at_level);
      }
      if (g.rep_index != g.members.size() / 2) {
        result.add("invariant.hierarchy.rep_middle",
                   "rep index " + std::to_string(g.rep_index) +
                       " is not the middle of " +
                       std::to_string(g.members.size()) + " members" +
                       at_level);
      }
      for (const core::NodeId member : g.members) {
        if (cursor >= expected.size() || expected[cursor] != member) {
          result.add("invariant.hierarchy.partition",
                     "node " + std::to_string(member) +
                         " breaks the ring-order partition" + at_level);
          return result;  // cascading mismatches would repeat this finding
        }
        ++cursor;
      }
      reps.push_back(g.rep());
    }
    if (cursor != expected.size()) {
      result.add("invariant.hierarchy.partition",
                 std::to_string(expected.size() - cursor) +
                     " node(s) missing from the partition" + at_level);
    }
    if (max_size > min_size + 1) {
      result.add("invariant.hierarchy.balance",
                 "group sizes span [" + std::to_string(min_size) + ", " +
                     std::to_string(max_size) +
                     "], want a spread of at most one" + at_level);
    }
    expected = std::move(reps);
  }

  if (expected != h.final_reps) {
    result.add("invariant.hierarchy.final_reps",
               "final representatives are not the last level's survivors");
  }
  if (h.final_all_to_all) {
    if (h.final_reps.size() < 2) {
      result.add("invariant.hierarchy.a2a_degenerate",
                 "all-to-all among " + std::to_string(h.final_reps.size()) +
                     " representative(s)");
    }
    if (core::all_to_all_wavelengths(h.final_reps.size()) > wavelengths) {
      result.add("invariant.hierarchy.a2a_budget",
                 "ceil(" + std::to_string(h.final_reps.size()) + "^2/8) = " +
                     std::to_string(core::all_to_all_wavelengths(
                         h.final_reps.size())) +
                     " exceeds w = " + std::to_string(wavelengths));
    }
  } else if (h.final_reps.size() != 1) {
    result.add("invariant.hierarchy.root",
               "reduce stage ended with " +
                   std::to_string(h.final_reps.size()) +
                   " representatives and no all-to-all");
  }
  return result;
}

CheckResult check_wrht_step_count(const coll::Schedule& schedule,
                                  std::uint32_t num_nodes,
                                  std::uint32_t group_size,
                                  std::uint32_t wavelengths) {
  CheckResult result;
  const core::WrhtStepPlan plan =
      core::wrht_plan(num_nodes, group_size, wavelengths);
  if (schedule.num_steps() != plan.total_steps) {
    result.add("invariant.steps.plan",
               "schedule has " + std::to_string(schedule.num_steps()) +
                   " steps, closed form says " +
                   std::to_string(plan.total_steps));
  }
  const std::uint64_t upper = core::wrht_steps_upper(num_nodes, group_size);
  if (plan.total_steps > upper) {
    result.add("invariant.steps.upper_bound",
               std::to_string(plan.total_steps) + " steps exceed 2*ceil(log_" +
                   std::to_string(group_size) + " " +
                   std::to_string(num_nodes) + ") = " + std::to_string(upper));
  }
  // Lemma 1 applies to plans whose group size respects the budget.
  if (group_size <= 2 * wavelengths + 1) {
    const std::uint64_t lower = core::wrht_min_steps(num_nodes, wavelengths);
    if (plan.total_steps + 1 < lower) {
      result.add("invariant.steps.lemma1",
                 std::to_string(plan.total_steps) +
                     " steps beat the Lemma 1 bound " + std::to_string(lower) +
                     " by more than the all-to-all saving");
    }
  }
  return result;
}

CheckResult check_wrht_wavelength_discipline(const coll::Schedule& schedule,
                                             std::uint32_t num_nodes,
                                             std::uint32_t group_size,
                                             std::uint32_t wavelengths) {
  CheckResult result;
  const core::WrhtStepPlan plan =
      core::wrht_plan(num_nodes, group_size, wavelengths);
  const std::uint64_t analytic = std::max<std::uint64_t>(
      plan.wavelengths_required, 1);

  // Single rounds within the operational (first-fit) budget.
  optics::OpticalConfig strict;
  strict.wavelengths = static_cast<std::uint32_t>(operational_budget(analytic));
  strict.allow_multi_round_steps = false;
  try {
    const optics::RingNetwork net(num_nodes, strict);
    const optics::OpticalRunResult res = net.execute(schedule);
    if (res.total_rounds != res.steps) {
      result.add("invariant.wavelengths.single_round",
                 std::to_string(res.total_rounds) + " rounds for " +
                     std::to_string(res.steps) + " steps at 1.5x budget");
    }
  } catch (const Error& e) {
    result.add("invariant.wavelengths.operational",
               "not single-round within ceil(1.5 * " +
                   std::to_string(analytic) + ") lambdas: " + e.what());
  }

  // Still carriable (splitting allowed) at the analytic requirement.
  optics::OpticalConfig lax;
  lax.wavelengths = static_cast<std::uint32_t>(analytic);
  try {
    const optics::RingNetwork net(num_nodes, lax);
    const optics::OpticalRunResult res = net.execute(schedule);
    if (res.max_wavelengths_used > analytic) {
      result.add("invariant.wavelengths.analytic",
                 std::to_string(res.max_wavelengths_used) +
                     " lambdas used against requirement " +
                     std::to_string(analytic));
    }
  } catch (const Error& e) {
    result.add("invariant.wavelengths.carriable",
               std::string("schedule cannot be carried at the analytic "
                           "requirement: ") +
                   e.what());
  }
  return result;
}

CheckResult check_wrht_configuration(std::uint32_t num_nodes,
                                     std::uint32_t group_size,
                                     std::uint32_t wavelengths,
                                     std::size_t elements) {
  core::WrhtOptions options;
  options.group_size = group_size;
  options.wavelengths = wavelengths;
  const coll::Schedule schedule =
      core::wrht_allreduce(num_nodes, elements, options);

  CheckResult result;
  result.merge(check_schedule_structure(schedule));
  InvariantOptions inv;
  inv.wavelengths = wavelengths;
  result.merge(check_conflict_freedom(schedule, num_nodes, inv));
  result.merge(check_wrht_hierarchy(num_nodes, group_size, wavelengths));
  result.merge(
      check_wrht_step_count(schedule, num_nodes, group_size, wavelengths));
  result.merge(check_wrht_wavelength_discipline(schedule, num_nodes,
                                                group_size, wavelengths));
  return result;
}

}  // namespace wrht::verify
