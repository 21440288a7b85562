#include "wrht/core/wrht_schedule.hpp"

#include <mutex>
#include <numeric>
#include <string>

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

void append_reduce_steps(Schedule& sched, const Hierarchy& hierarchy,
                         std::size_t elements, const topo::Ring& ring) {
  for (std::size_t l = 0; l < hierarchy.levels.size(); ++l) {
    Step& step = sched.add_step("reduce level " + std::to_string(l));
    step.transfers.reserve(hierarchy.levels[l].non_rep_members());
    for (const Group& group : hierarchy.levels[l].groups) {
      const NodeId rep = group.rep();
      for (const NodeId member : group.members) {
        if (member == rep) continue;
        step.transfers.push_back(Transfer{member, rep, 0, elements,
                                          TransferKind::kReduce,
                                          toward(member, rep)});
      }
    }
  }
  if (hierarchy.final_all_to_all) {
    Step& step = sched.add_step("all-to-all exchange");
    const std::size_t k = hierarchy.final_reps.size();
    step.transfers.reserve(k * (k - 1));
    bool tie_clockwise = true;
    const auto& reps = hierarchy.final_reps;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        const NodeId a = reps[i];
        const NodeId b = reps[j];
        const auto [forward, backward] =
            exchange_directions(ring, a, b, tie_clockwise);
        step.transfers.push_back(
            Transfer{a, b, 0, elements, TransferKind::kReduce, forward});
        step.transfers.push_back(
            Transfer{b, a, 0, elements, TransferKind::kReduce, backward});
      }
    }
  }
}

void append_broadcast_steps(Schedule& sched, const Hierarchy& hierarchy,
                            std::size_t elements) {
  for (std::size_t l = hierarchy.levels.size(); l-- > 0;) {
    Step& step = sched.add_step("broadcast level " + std::to_string(l));
    step.transfers.reserve(hierarchy.levels[l].non_rep_members());
    for (const Group& group : hierarchy.levels[l].groups) {
      const NodeId rep = group.rep();
      for (const NodeId member : group.members) {
        if (member == rep) continue;
        step.transfers.push_back(Transfer{rep, member, 0, elements,
                                          TransferKind::kCopy,
                                          toward(rep, member)});
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

coll::Schedule wrht_allreduce(const std::vector<NodeId>& nodes,
                              std::uint32_t ring_size, std::size_t elements,
                              const WrhtOptions& options) {
  require(options.group_size >= 2, "wrht_allreduce: group_size must be >= 2");
  require(nodes.size() >= 2, "wrht_allreduce: need at least 2 nodes");
  for (const NodeId n : nodes) {
    require(n < ring_size, "wrht_allreduce: node id exceeds ring size");
  }

  const Hierarchy hierarchy =
      build_hierarchy(nodes, options.group_size, options.wavelengths,
                      options.allow_all_to_all);

  Schedule sched("wrht", ring_size, elements);
  const topo::Ring ring(ring_size);
  sched.reserve_steps(2 * hierarchy.levels.size() +
                      (hierarchy.final_all_to_all ? 1 : 0));
  append_reduce_steps(sched, hierarchy, elements, ring);
  append_broadcast_steps(sched, hierarchy, elements);
  return sched;
}

coll::Schedule wrht_allreduce(std::uint32_t num_nodes, std::size_t elements,
                              const WrhtOptions& options) {
  std::vector<NodeId> nodes(num_nodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return wrht_allreduce(nodes, num_nodes, elements, options);
}

namespace {

Hierarchy rooted_hierarchy(std::uint32_t num_nodes,
                           const WrhtOptions& options) {
  require(options.group_size >= 2, "wrht rooted: group_size must be >= 2");
  require(num_nodes >= 2, "wrht rooted: need at least 2 nodes");
  std::vector<NodeId> nodes(num_nodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return build_hierarchy(nodes, options.group_size, options.wavelengths,
                         /*allow_all_to_all=*/false);
}

}  // namespace

WrhtRootedSchedule wrht_reduce(std::uint32_t num_nodes, std::size_t elements,
                               const WrhtOptions& options) {
  const Hierarchy hierarchy = rooted_hierarchy(num_nodes, options);
  Schedule sched("wrht_reduce", num_nodes, elements);
  const topo::Ring ring(num_nodes);
  sched.reserve_steps(hierarchy.levels.size());
  append_reduce_steps(sched, hierarchy, elements, ring);
  return WrhtRootedSchedule{std::move(sched), hierarchy.final_reps[0]};
}

WrhtRootedSchedule wrht_broadcast(std::uint32_t num_nodes,
                                  std::size_t elements,
                                  const WrhtOptions& options) {
  const Hierarchy hierarchy = rooted_hierarchy(num_nodes, options);
  Schedule sched("wrht_broadcast", num_nodes, elements);
  sched.reserve_steps(hierarchy.levels.size());
  append_broadcast_steps(sched, hierarchy, elements);
  return WrhtRootedSchedule{std::move(sched), hierarchy.final_reps[0]};
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
