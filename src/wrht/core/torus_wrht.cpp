#include "wrht/core/torus_wrht.hpp"

#include <utility>

#include "wrht/common/error.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::core {

namespace {

/// What the torus WRHT runs: one hierarchy over a row's columns, which every
/// row replays at once and which collapses to the single root column, and
/// one over the root column's rows with the same m, budget and all-to-all
/// setting.
struct TorusHierarchies {
  Hierarchy row;
  Hierarchy column;
};

TorusHierarchies torus_hierarchies(const topo::Torus& torus,
                                   const WrhtOptions& options) {
  Hierarchy row = build_hierarchy(torus.cols(), options.group_size,
                                  options.wavelengths,
                                  /*allow_all_to_all=*/false);
  Hierarchy column = build_hierarchy(torus.rows(), options.group_size,
                                     options.wavelengths,
                                     options.allow_all_to_all);
  return {std::move(row), std::move(column)};
}

}  // namespace

coll::Schedule torus_wrht_allreduce(const topo::Torus& torus,
                                    std::size_t elements,
                                    const WrhtOptions& row_options) {
  require(row_options.group_size >= 2,
          "torus_wrht: group_size must be >= 2");
  const TorusHierarchies h = torus_hierarchies(torus, row_options);
  const StepPlacement rows{"row ", torus.rows(), torus.cols(), 1, 0, nullptr};
  const StepPlacement column{"column ", 1, 0, torus.cols(),
                             h.row.final_reps[0], nullptr};

  coll::Schedule sched("torus_wrht", torus.size(), elements);
  append_reduce_stage(sched, h.row, elements, rows);
  append_reduce_stage(sched, h.column, elements, column);
  append_broadcast_stage(sched, h.column, elements, column);
  append_broadcast_stage(sched, h.row, elements, rows);
  return sched;
}

TorusWrhtPlan torus_wrht_plan(const topo::Torus& torus,
                              const WrhtOptions& row_options) {
  const TorusHierarchies h = torus_hierarchies(torus, row_options);
  TorusWrhtPlan plan;
  plan.row_reduce_steps = static_cast<std::uint32_t>(h.row.levels.size());
  plan.column_steps = static_cast<std::uint32_t>(h.column.allreduce_steps());
  plan.row_broadcast_steps = plan.row_reduce_steps;
  return plan;
}

}  // namespace wrht::core
