#include "wrht/core/mesh_wrht.hpp"

#include "wrht/common/error.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::core {

namespace {

/// What the mesh WRHT runs: one hierarchy over a row's columns, which every
/// row replays at once and which collapses to the single root column, and,
/// unless all-to-all is allowed and one line all-to-all among the row roots
/// fits the budget, the root column's rooted hierarchy.
struct MeshHierarchies {
  Hierarchy row;
  bool line_all_to_all = false;
  Hierarchy column;  ///< empty when line_all_to_all
};

MeshHierarchies mesh_hierarchies(const topo::Mesh& mesh,
                                 const WrhtOptions& options) {
  MeshHierarchies h;
  h.row = build_hierarchy(mesh.cols(), options.group_size,
                          options.wavelengths, /*allow_all_to_all=*/false);
  h.line_all_to_all =
      options.allow_all_to_all &&
      topo::line_all_to_all_wavelengths(mesh.rows()) <= options.wavelengths;
  if (!h.line_all_to_all) {
    h.column = build_hierarchy(mesh.rows(), options.group_size,
                               options.wavelengths,
                               /*allow_all_to_all=*/false);
  }
  return h;
}

}  // namespace

coll::Schedule mesh_wrht_allreduce(const topo::Mesh& mesh,
                                   std::size_t elements,
                                   const WrhtOptions& row_options) {
  require(row_options.group_size >= 2, "mesh_wrht: group_size must be >= 2");
  const MeshHierarchies h = mesh_hierarchies(mesh, row_options);
  const StepPlacement rows{"row ", mesh.rows(), mesh.cols(), 1, 0, nullptr};
  const StepPlacement column{"column ", 1, 0, mesh.cols(),
                             h.row.final_reps[0], nullptr};

  coll::Schedule sched("mesh_wrht", mesh.size(), elements);
  append_reduce_stage(sched, h.row, elements, rows);
  if (h.line_all_to_all) {
    // One-stage line model: every row root exchanges with every other.
    coll::Step& step = sched.add_step("column line all-to-all");
    const std::uint32_t k = mesh.rows();
    step.transfers.reserve(std::size_t{k} * (k - 1));
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = 0; b < k; ++b) {
        if (a == b) continue;
        step.transfers.push_back(
            coll::Transfer{column.node(0, a), column.node(0, b), 0, elements,
                           coll::TransferKind::kReduce, std::nullopt});
      }
    }
  } else {
    // All-to-all off or over budget: the column reduces to one root and
    // broadcasts back along the line (its groups never wrap).
    append_reduce_stage(sched, h.column, elements, column);
    append_broadcast_stage(sched, h.column, elements, column);
  }
  append_broadcast_stage(sched, h.row, elements, rows);
  return sched;
}

MeshWrhtPlan mesh_wrht_plan(const topo::Mesh& mesh,
                            const WrhtOptions& row_options) {
  const MeshHierarchies h = mesh_hierarchies(mesh, row_options);
  MeshWrhtPlan plan;
  plan.row_reduce_steps = static_cast<std::uint32_t>(h.row.levels.size());
  plan.column_all_to_all = h.line_all_to_all;
  plan.column_steps =
      h.line_all_to_all ? 1
                        : static_cast<std::uint32_t>(h.column.allreduce_steps());
  plan.row_broadcast_steps = plan.row_reduce_steps;
  return plan;
}

}  // namespace wrht::core
