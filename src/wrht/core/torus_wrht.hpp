// WRHT on a 2-D torus (paper §6.1 extension).
//
// Phase 1: every row runs the WRHT reduce hierarchy to a single row root
//          (all rows share the same root column by symmetry).
// Phase 2: the root column — itself a ring — runs a full WRHT All-reduce.
// Phase 3: every row replays its reduce hierarchy in reverse (broadcast).
//
// The schedule is proven by the same verification oracle as the ring
// schedules and priced by the optical-torus backend.
#pragma once

#include <cstddef>

#include "wrht/collectives/schedule.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht::core {

/// Builds the torus WRHT All-reduce schedule. The root column runs the
/// rows' m and budget, and honours `allow_all_to_all`.
[[nodiscard]] coll::Schedule torus_wrht_allreduce(const topo::Torus& torus,
                                                  std::size_t elements,
                                                  const WrhtOptions& row_options);

/// Step count of the schedule the builder emits, counted from the same
/// hierarchies.
struct TorusWrhtPlan {
  std::uint32_t row_reduce_steps = 0;
  std::uint32_t column_steps = 0;
  std::uint32_t row_broadcast_steps = 0;
  [[nodiscard]] std::uint32_t total() const {
    return row_reduce_steps + column_steps + row_broadcast_steps;
  }
};
[[nodiscard]] TorusWrhtPlan torus_wrht_plan(const topo::Torus& torus,
                                            const WrhtOptions& row_options);

}  // namespace wrht::core
