// WRHT schedule generation (paper §4.1): reduce stage over the hierarchy,
// optional all-to-all among the final representatives, broadcast stage in
// reverse. Every grouping step pins its transfers to the ring direction
// that stays inside the group's arc, so wavelengths are reused across
// groups exactly as the paper describes (floor(m/2) per step). The torus
// and mesh extensions (§6.1) emit their phases through the same stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

#include "wrht/collectives/schedule.hpp"
#include "wrht/core/grouping.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::core {

struct WrhtOptions {
  /// First-level group size m (>= 2). The planner picks min(2w+1, m', N)
  /// by default; callers may override for sweeps (paper Fig. 4).
  std::uint32_t group_size = 0;
  /// Wavelength budget w per fiber, used for the all-to-all cutoff.
  std::uint32_t wavelengths = 64;
  /// When false the reduce stage always collapses to a single root and the
  /// broadcast replays every level (theta = 2L); used by the all-to-all
  /// ablation bench and along the torus's root column (rows always do).
  bool allow_all_to_all = true;
};

/// Where a hierarchy's steps land: `rows` copies run at once, copy r placing
/// hierarchy id i on node r * row_stride + i * id_stride + offset (the
/// identity on a flat ring, r * cols + c on torus and mesh rows,
/// r * cols + root_col along their root column), under labels that start
/// with `label_prefix`. Only the flat ring gives `ring`, which pins each
/// transfer to its in-arc direction (the all-to-all's to its shortest arc).
struct StepPlacement {
  std::string_view label_prefix;
  std::uint32_t rows = 1;
  std::uint32_t row_stride = 0;
  std::uint32_t id_stride = 1;
  NodeId offset = 0;
  const topo::Ring* ring = nullptr;

  [[nodiscard]] NodeId node(std::uint32_t row, NodeId id) const {
    return row * row_stride + id * id_stride + offset;
  }
};

/// Appends the reduce stage: "reduce level l" bottom-up, then "all-to-all
/// exchange" among the final representatives when the hierarchy ends in one.
void append_reduce_stage(coll::Schedule& schedule, const Hierarchy& hierarchy,
                         std::size_t elements, const StepPlacement& placement);

/// Appends the broadcast stage: "broadcast level l" top-down.
void append_broadcast_stage(coll::Schedule& schedule,
                            const Hierarchy& hierarchy, std::size_t elements,
                            const StepPlacement& placement);

/// Builds the WRHT All-reduce schedule for nodes 0..num_nodes-1.
[[nodiscard]] coll::Schedule wrht_allreduce(std::uint32_t num_nodes,
                                            std::size_t elements,
                                            const WrhtOptions& options);

/// A rooted collective: the schedule plus the hierarchy root it reduces
/// into / broadcasts from (always the recursive middle of the ring).
struct WrhtRootedSchedule {
  coll::Schedule schedule;
  NodeId root;
};

/// Standalone WRHT Reduce: ceil(log_m N) steps folding every node's vector
/// into the hierarchy root (proven by verify::check_reduce).
[[nodiscard]] WrhtRootedSchedule wrht_reduce(std::uint32_t num_nodes,
                                             std::size_t elements,
                                             const WrhtOptions& options);

/// Standalone WRHT Broadcast: ceil(log_m N) steps fanning the root's
/// vector out to every node (proven by verify::check_broadcast).
[[nodiscard]] WrhtRootedSchedule wrht_broadcast(std::uint32_t num_nodes,
                                                std::size_t elements,
                                                const WrhtOptions& options);

/// Directions of the two transfers a -> b and b -> a of an all-to-all
/// exchange on `ring`: each takes the shortest arc. An antipodal pair
/// (cw == ccw) sends BOTH transfers the SAME way, so the arcs a -> b and
/// b -> a tile the ring without overlapping and can even share a
/// wavelength; mirroring them onto opposite fibers would stack each on
/// that fiber's shortest-path traffic and push the per-segment load past
/// the ceil(k^2/8) bound (4 equally spaced nodes would need 3 lambdas
/// instead of 2). Successive antipodal pairs alternate fibers for balance:
/// `tie_clockwise` picks the next tie's direction and flips on each tie.
[[nodiscard]] std::pair<topo::Direction, topo::Direction> exchange_directions(
    const topo::Ring& ring, NodeId a, NodeId b, bool& tie_clockwise);

/// Registers "wrht" in coll::Registry::instance() so table-driven sweeps
/// can build it by name (group_size <- params.group_size or auto-planned,
/// wavelengths <- params.wavelengths). Idempotent.
void register_wrht_algorithm();

}  // namespace wrht::core
