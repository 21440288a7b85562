#include "wrht/core/wrht_schedule.hpp"

#include <mutex>
#include <string>
#include <tuple>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/planner.hpp"

namespace wrht::core {

namespace {

using coll::Schedule;
using coll::Step;
using coll::Transfer;
using coll::TransferKind;

/// Direction that keeps a member->rep lightpath inside the group's arc:
/// group arcs ascend in node id, so lower ids reach the rep clockwise.
topo::Direction toward(NodeId from, NodeId to) {
  return from < to ? topo::Direction::kClockwise
                   : topo::Direction::kCounterClockwise;
}

/// Nodes 0..N-1 of `ring`, pinned to in-arc directions.
StepPlacement flat(const topo::Ring& ring) { return {"", 1, 0, 1, 0, &ring}; }

/// One grouping step over `level` in every row: each member that is not its
/// group's rep sends to the rep (kReduce) or receives from it (kCopy).
void append_level(Schedule& sched, std::string label, const Level& level,
                  std::size_t elements, const StepPlacement& at,
                  TransferKind kind) {
  Step& step = sched.add_step(std::move(label));
  step.transfers.reserve(std::size_t{at.rows} * level.non_rep_members());
  const bool reduce = kind == TransferKind::kReduce;
  for (std::uint32_t r = 0; r < at.rows; ++r) {
    for (const Group& group : level.groups) {
      const NodeId rep = at.node(r, group.rep());
      for (const NodeId id : group.members) {
        if (id == group.rep()) continue;
        const NodeId member = at.node(r, id);
        const NodeId src = reduce ? member : rep;
        const NodeId dst = reduce ? rep : member;
        step.transfers.push_back(Transfer{
            src, dst, 0, elements, kind,
            at.ring != nullptr ? topo::DirectionHint(toward(src, dst))
                               : topo::DirectionHint()});
      }
    }
  }
}

}  // namespace

std::pair<topo::Direction, topo::Direction> exchange_directions(
    const topo::Ring& ring, NodeId a, NodeId b, bool& tie_clockwise) {
  const std::uint32_t cw = ring.cw_distance(a, b);
  const std::uint32_t ccw = ring.ccw_distance(a, b);
  if (cw < ccw) {
    return {topo::Direction::kClockwise, topo::Direction::kCounterClockwise};
  }
  if (ccw < cw) {
    return {topo::Direction::kCounterClockwise, topo::Direction::kClockwise};
  }
  const topo::Direction tie = tie_clockwise
                                  ? topo::Direction::kClockwise
                                  : topo::Direction::kCounterClockwise;
  tie_clockwise = !tie_clockwise;
  return {tie, tie};
}

void append_reduce_stage(Schedule& schedule, const Hierarchy& hierarchy,
                         std::size_t elements, const StepPlacement& at) {
  const std::string prefix(at.label_prefix);
  for (std::size_t l = 0; l < hierarchy.levels.size(); ++l) {
    append_level(schedule, prefix + "reduce level " + std::to_string(l),
                 hierarchy.levels[l], elements, at, TransferKind::kReduce);
  }
  if (!hierarchy.final_all_to_all) return;
  Step& step = schedule.add_step(prefix + "all-to-all exchange");
  const std::vector<NodeId>& reps = hierarchy.final_reps;
  const std::size_t k = reps.size();
  step.transfers.reserve(std::size_t{at.rows} * k * (k - 1));
  for (std::uint32_t r = 0; r < at.rows; ++r) {
    bool tie_clockwise = true;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        const NodeId a = at.node(r, reps[i]);
        const NodeId b = at.node(r, reps[j]);
        topo::DirectionHint forward;
        topo::DirectionHint backward;
        if (at.ring != nullptr) {
          std::tie(forward, backward) =
              exchange_directions(*at.ring, a, b, tie_clockwise);
        }
        step.transfers.push_back(
            Transfer{a, b, 0, elements, TransferKind::kReduce, forward});
        step.transfers.push_back(
            Transfer{b, a, 0, elements, TransferKind::kReduce, backward});
      }
    }
  }
}

void append_broadcast_stage(Schedule& schedule, const Hierarchy& hierarchy,
                            std::size_t elements, const StepPlacement& at) {
  const std::string prefix(at.label_prefix);
  for (std::size_t l = hierarchy.levels.size(); l-- > 0;) {
    append_level(schedule, prefix + "broadcast level " + std::to_string(l),
                 hierarchy.levels[l], elements, at, TransferKind::kCopy);
  }
}

coll::Schedule wrht_allreduce(std::uint32_t num_nodes, std::size_t elements,
                              const WrhtOptions& options) {
  require(options.group_size >= 2, "wrht_allreduce: group_size must be >= 2");
  require(num_nodes >= 2, "wrht_allreduce: need at least 2 nodes");
  const Hierarchy hierarchy =
      build_hierarchy(num_nodes, options.group_size, options.wavelengths,
                      options.allow_all_to_all);
  Schedule sched("wrht", num_nodes, elements);
  const topo::Ring ring(num_nodes);
  sched.reserve_steps(hierarchy.allreduce_steps());
  append_reduce_stage(sched, hierarchy, elements, flat(ring));
  append_broadcast_stage(sched, hierarchy, elements, flat(ring));
  return sched;
}

namespace {

/// A rooted collective: one stage over the hierarchy that collapses to a
/// single root.
WrhtRootedSchedule rooted(std::string algorithm, std::uint32_t num_nodes,
                          std::size_t elements, const WrhtOptions& options,
                          decltype(&append_reduce_stage) append_stage) {
  require(options.group_size >= 2, "wrht rooted: group_size must be >= 2");
  require(num_nodes >= 2, "wrht rooted: need at least 2 nodes");
  const Hierarchy hierarchy =
      build_hierarchy(num_nodes, options.group_size, options.wavelengths,
                      /*allow_all_to_all=*/false);
  Schedule sched(std::move(algorithm), num_nodes, elements);
  const topo::Ring ring(num_nodes);
  sched.reserve_steps(hierarchy.levels.size());
  append_stage(sched, hierarchy, elements, flat(ring));
  return WrhtRootedSchedule{std::move(sched), hierarchy.final_reps[0]};
}

}  // namespace

WrhtRootedSchedule wrht_reduce(std::uint32_t num_nodes, std::size_t elements,
                               const WrhtOptions& options) {
  return rooted("wrht_reduce", num_nodes, elements, options,
                append_reduce_stage);
}

WrhtRootedSchedule wrht_broadcast(std::uint32_t num_nodes,
                                  std::size_t elements,
                                  const WrhtOptions& options) {
  return rooted("wrht_broadcast", num_nodes, elements, options,
                append_broadcast_stage);
}

void register_wrht_algorithm() {
  static std::once_flag once;
  std::call_once(once, [] {
    coll::Registry::instance().register_algorithm(
        "wrht", [](const coll::AllreduceParams& p) {
          WrhtOptions options;
          options.wavelengths = p.wavelengths;
          options.group_size = p.group_size >= 2
                                   ? p.group_size
                                   : plan_wrht(p.num_nodes, p.wavelengths)
                                         .group_size;
          return wrht_allreduce(p.num_nodes, p.elements, options);
        });
  });
}

}  // namespace wrht::core
