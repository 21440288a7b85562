#include "wrht/core/torus_wrht.hpp"

#include <algorithm>
#include <string>

#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/grouping.hpp"

namespace wrht::core {

namespace {

using coll::Schedule;
using coll::Step;
using coll::Transfer;
using coll::TransferKind;

/// Hierarchy over the column indices of one row; identical for every row.
Hierarchy row_hierarchy(const topo::Torus& torus,
                        const WrhtOptions& options) {
  std::vector<NodeId> cols(torus.cols());
  for (std::uint32_t c = 0; c < torus.cols(); ++c) cols[c] = c;
  return build_hierarchy(cols, options.group_size, options.wavelengths,
                         /*allow_all_to_all=*/false);
}

}  // namespace

coll::Schedule torus_wrht_allreduce(const topo::Torus& torus,
                                    std::size_t elements,
                                    const WrhtOptions& row_options) {
  require(row_options.group_size >= 2,
          "torus_wrht: group_size must be >= 2");
  const Hierarchy rows = row_hierarchy(torus, row_options);
  require(rows.final_reps.size() == 1,
          "torus_wrht: row hierarchy must end in a single root");
  const std::uint32_t root_col = rows.final_reps[0];

  Schedule sched("torus_wrht", torus.size(), elements);

  // Phase 1: per-row reduce; all rows execute each level concurrently.
  for (std::size_t l = 0; l < rows.levels.size(); ++l) {
    Step& step = sched.add_step("row reduce level " + std::to_string(l));
    step.transfers.reserve(std::size_t{torus.rows()} *
                           rows.levels[l].non_rep_members());
    for (std::uint32_t r = 0; r < torus.rows(); ++r) {
      for (const Group& group : rows.levels[l].groups) {
        const std::uint32_t rep_col = group.rep();
        for (const std::uint32_t member_col : group.members) {
          if (member_col == rep_col) continue;
          step.transfers.push_back(
              Transfer{torus.node_at(r, member_col),
                       torus.node_at(r, rep_col), 0, elements,
                       TransferKind::kReduce, std::nullopt});
        }
      }
    }
  }

  // Phase 2: full WRHT All-reduce along the root column's ring.
  {
    std::vector<NodeId> column(torus.rows());
    for (std::uint32_t r = 0; r < torus.rows(); ++r) {
      column[r] = torus.node_at(r, root_col);
    }
    WrhtOptions col_options = row_options;
    col_options.group_size =
        std::min<std::uint32_t>(row_options.group_size, torus.rows());
    if (col_options.group_size < 2) col_options.group_size = 2;
    const Schedule column_sched = wrht_allreduce(
        column, torus.size(), elements, col_options);
    for (const Step& s : column_sched.steps()) {
      Step& step = sched.add_step("column " + s.label);
      step.transfers.reserve(s.transfers.size());
      for (Transfer t : s.transfers) {
        // Direction hints are ring-specific; drop them on the torus.
        t.direction = std::nullopt;
        step.transfers.push_back(t);
      }
    }
  }

  // Phase 3: per-row broadcast, reverse of phase 1.
  for (std::size_t l = rows.levels.size(); l-- > 0;) {
    Step& step = sched.add_step("row broadcast level " + std::to_string(l));
    step.transfers.reserve(std::size_t{torus.rows()} *
                           rows.levels[l].non_rep_members());
    for (std::uint32_t r = 0; r < torus.rows(); ++r) {
      for (const Group& group : rows.levels[l].groups) {
        const std::uint32_t rep_col = group.rep();
        for (const std::uint32_t member_col : group.members) {
          if (member_col == rep_col) continue;
          step.transfers.push_back(
              Transfer{torus.node_at(r, rep_col),
                       torus.node_at(r, member_col), 0, elements,
                       TransferKind::kCopy, std::nullopt});
        }
      }
    }
  }
  return sched;
}

TorusWrhtPlan torus_wrht_plan(const topo::Torus& torus,
                              const WrhtOptions& row_options) {
  const Hierarchy rows = row_hierarchy(torus, row_options);
  TorusWrhtPlan plan;
  plan.row_reduce_steps = static_cast<std::uint32_t>(rows.levels.size());
  plan.row_broadcast_steps = plan.row_reduce_steps;

  WrhtOptions col_options = row_options;
  col_options.group_size =
      std::max<std::uint32_t>(2, std::min<std::uint32_t>(
                                     row_options.group_size, torus.rows()));
  const WrhtStepPlan col =
      wrht_plan(torus.rows(), col_options.group_size, col_options.wavelengths);
  plan.column_steps = col.total_steps;
  return plan;
}

}  // namespace wrht::core
