// WRHT on a 2-D mesh (second half of paper §6.1).
//
// Identical phase structure to the torus extension — per-row reduce,
// root-column synchronization, per-row broadcast — but rows and columns
// are lines, so the column phase uses the one-stage *line* model: the
// all-to-all among the row roots needs ceil(k/2)*floor(k/2) wavelengths
// (line load bound) instead of the ring's ceil(k^2/8), and falls back to a
// rooted reduce+broadcast when the budget is short or
// `WrhtOptions::allow_all_to_all` is off.
#pragma once

#include <cstddef>

#include "wrht/collectives/schedule.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/topo/mesh.hpp"

namespace wrht::core {

[[nodiscard]] coll::Schedule mesh_wrht_allreduce(const topo::Mesh& mesh,
                                                 std::size_t elements,
                                                 const WrhtOptions& row_options);

struct MeshWrhtPlan {
  std::uint32_t row_reduce_steps = 0;
  std::uint32_t column_steps = 0;
  std::uint32_t row_broadcast_steps = 0;
  /// True when the column phase ends with the single-step line all-to-all.
  bool column_all_to_all = false;
  [[nodiscard]] std::uint32_t total() const {
    return row_reduce_steps + column_steps + row_broadcast_steps;
  }
};
[[nodiscard]] MeshWrhtPlan mesh_wrht_plan(const topo::Mesh& mesh,
                                          const WrhtOptions& row_options);

}  // namespace wrht::core
