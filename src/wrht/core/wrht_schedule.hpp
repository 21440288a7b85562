// WRHT schedule generation (paper §4.1): reduce stage over the hierarchy,
// optional all-to-all among the final representatives, broadcast stage in
// reverse. Every grouping step pins its transfers to the ring direction
// that stays inside the group's arc, so wavelengths are reused across
// groups exactly as the paper describes (floor(m/2) per step).
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// broadcast replays every level (theta = 2L); used by the torus row
  /// phase and the all-to-all ablation bench.
  bool allow_all_to_all = true;
};

/// Builds the WRHT All-reduce schedule for nodes 0..num_nodes-1.
[[nodiscard]] coll::Schedule wrht_allreduce(std::uint32_t num_nodes,
                                            std::size_t elements,
                                            const WrhtOptions& options);

/// Same, over an explicit node list in ring order (used by the torus
/// extension to run WRHT inside one row or column).
[[nodiscard]] coll::Schedule wrht_allreduce(
    const std::vector<NodeId>& nodes, std::uint32_t ring_size,
    std::size_t elements, const WrhtOptions& options);

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
