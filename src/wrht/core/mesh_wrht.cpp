#include "wrht/core/mesh_wrht.hpp"

#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::core {

namespace {

using coll::Schedule;
using coll::Step;
using coll::Transfer;
using coll::TransferKind;

Hierarchy row_hierarchy(const topo::Mesh& mesh, const WrhtOptions& options) {
  std::vector<NodeId> cols(mesh.cols());
  for (std::uint32_t c = 0; c < mesh.cols(); ++c) cols[c] = c;
  return build_hierarchy(cols, options.group_size, options.wavelengths,
                         /*allow_all_to_all=*/false);
}

/// Emits hierarchy reduce levels for every row concurrently (mesh variant:
/// no direction hints, lines have a unique route anyway).
void emit_row_levels(Schedule& sched, const topo::Mesh& mesh,
                     const Hierarchy& rows, std::size_t elements,
                     bool broadcast) {
  const std::size_t levels = rows.levels.size();
  for (std::size_t idx = 0; idx < levels; ++idx) {
    const std::size_t l = broadcast ? levels - 1 - idx : idx;
    Step& step = sched.add_step(
        std::string(broadcast ? "row broadcast level " : "row reduce level ") +
        std::to_string(l));
    step.transfers.reserve(std::size_t{mesh.rows()} *
                           rows.levels[l].non_rep_members());
    for (std::uint32_t r = 0; r < mesh.rows(); ++r) {
      for (const Group& group : rows.levels[l].groups) {
        const std::uint32_t rep_col = group.rep();
        for (const std::uint32_t member_col : group.members) {
          if (member_col == rep_col) continue;
          const NodeId rep = mesh.node_at(r, rep_col);
          const NodeId member = mesh.node_at(r, member_col);
          if (broadcast) {
            step.transfers.push_back(Transfer{rep, member, 0, elements,
                                              TransferKind::kCopy,
                                              std::nullopt});
          } else {
            step.transfers.push_back(Transfer{member, rep, 0, elements,
                                              TransferKind::kReduce,
                                              std::nullopt});
          }
        }
      }
    }
  }
}

}  // namespace

coll::Schedule mesh_wrht_allreduce(const topo::Mesh& mesh,
                                   std::size_t elements,
                                   const WrhtOptions& row_options) {
  require(row_options.group_size >= 2, "mesh_wrht: group_size must be >= 2");
  const Hierarchy rows = row_hierarchy(mesh, row_options);
  require(rows.final_reps.size() == 1,
          "mesh_wrht: row hierarchy must end in a single root");
  const std::uint32_t root_col = rows.final_reps[0];

  Schedule sched("mesh_wrht", mesh.size(), elements);
  emit_row_levels(sched, mesh, rows, elements, /*broadcast=*/false);

  // Column phase along the root column (a line of `rows` nodes).
  const std::uint32_t k = mesh.rows();
  if (topo::line_all_to_all_wavelengths(k) <= row_options.wavelengths) {
    // One-stage line model: every row root exchanges with every other.
    Step& step = sched.add_step("column line all-to-all");
    step.transfers.reserve(std::size_t{k} * (k - 1));
    for (std::uint32_t a = 0; a < k; ++a) {
      for (std::uint32_t b = 0; b < k; ++b) {
        if (a == b) continue;
        step.transfers.push_back(Transfer{mesh.node_at(a, root_col),
                                          mesh.node_at(b, root_col), 0,
                                          elements, TransferKind::kReduce,
                                          std::nullopt});
      }
    }
  } else {
    // Budget too small: hierarchical column reduce to a single root and
    // broadcast back, reusing the line-safe (wrap-free) grouping.
    std::vector<NodeId> column(k);
    for (std::uint32_t r = 0; r < k; ++r) column[r] = mesh.node_at(r, root_col);
    const std::uint32_t col_m = std::min(row_options.group_size, k);
    const Hierarchy col = build_hierarchy(
        column, col_m < 2 ? 2 : col_m, row_options.wavelengths,
        /*allow_all_to_all=*/false);
    for (std::size_t l = 0; l < col.levels.size(); ++l) {
      Step& step = sched.add_step("column reduce level " + std::to_string(l));
      step.transfers.reserve(col.levels[l].non_rep_members());
      for (const Group& g : col.levels[l].groups) {
        for (const NodeId member : g.members) {
          if (member == g.rep()) continue;
          step.transfers.push_back(Transfer{member, g.rep(), 0, elements,
                                            TransferKind::kReduce,
                                            std::nullopt});
        }
      }
    }
    for (std::size_t l = col.levels.size(); l-- > 0;) {
      Step& step = sched.add_step("column broadcast level " +
                                  std::to_string(l));
      step.transfers.reserve(col.levels[l].non_rep_members());
      for (const Group& g : col.levels[l].groups) {
        for (const NodeId member : g.members) {
          if (member == g.rep()) continue;
          step.transfers.push_back(Transfer{g.rep(), member, 0, elements,
                                            TransferKind::kCopy,
                                            std::nullopt});
        }
      }
    }
  }

  emit_row_levels(sched, mesh, rows, elements, /*broadcast=*/true);
  return sched;
}

MeshWrhtPlan mesh_wrht_plan(const topo::Mesh& mesh,
                            const WrhtOptions& row_options) {
  const Hierarchy rows = row_hierarchy(mesh, row_options);
  MeshWrhtPlan plan;
  plan.row_reduce_steps = static_cast<std::uint32_t>(rows.levels.size());
  plan.row_broadcast_steps = plan.row_reduce_steps;

  const std::uint32_t k = mesh.rows();
  if (topo::line_all_to_all_wavelengths(k) <= row_options.wavelengths) {
    plan.column_all_to_all = true;
    plan.column_steps = 1;
  } else {
    std::vector<NodeId> column(k);
    for (std::uint32_t r = 0; r < k; ++r) column[r] = r;
    const std::uint32_t col_m =
        std::max(2u, std::min(row_options.group_size, k));
    const Hierarchy col = build_hierarchy(column, col_m,
                                          row_options.wavelengths,
                                          /*allow_all_to_all=*/false);
    plan.column_steps = 2 * static_cast<std::uint32_t>(col.levels.size());
  }
  return plan;
}

}  // namespace wrht::core
