// Hierarchical grouping of ring nodes — the heart of WRHT (paper §4.1).
//
// Starting from all N nodes in ring order, nodes are partitioned into
// consecutive groups of (up to) m; the middle node of each group becomes its
// representative. The surviving representatives are regrouped level by
// level until either a single root remains or the representatives are few
// enough that one all-to-all exchange fits the wavelength budget
// (ceil(k^2/8) <= w, Liang & Shen's ring all-to-all bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wrht/topo/ring.hpp"

namespace wrht::core {

using NodeId = topo::NodeId;

/// One group at one level: `members` are node ids in ring order (arcs never
/// wrap past node 0); `rep_index` selects the middle member.
struct Group {
  std::vector<NodeId> members;
  std::uint32_t rep_index = 0;
  [[nodiscard]] NodeId rep() const { return members[rep_index]; }
};

struct Level {
  std::vector<Group> groups;
  /// Members that are not their group's rep: the transfers one reduce or
  /// broadcast step over this level moves, Σ(group size − 1).
  [[nodiscard]] std::size_t non_rep_members() const {
    std::size_t count = 0;
    for (const Group& group : groups) count += group.members.size() - 1;
    return count;
  }
};

/// The full reduce-stage plan.
struct Hierarchy {
  /// Grouping levels, bottom (all nodes) to top. Level l partitions the
  /// representatives surviving level l-1.
  std::vector<Level> levels;
  /// Representatives left after the last grouping level, in ring order.
  std::vector<NodeId> final_reps;
  /// True when the reduce stage finishes with an all-to-all exchange among
  /// final_reps; false when it collapsed to the single root final_reps[0].
  bool final_all_to_all = false;
  /// Steps of an All-reduce over this hierarchy: every level reduces and
  /// broadcasts once, plus the all-to-all when it ends in one.
  [[nodiscard]] std::size_t allreduce_steps() const {
    return 2 * levels.size() + (final_all_to_all ? 1 : 0);
  }
};

/// Wavelengths needed for a single-step all-to-all among k equally spaced
/// ring nodes: ceil(k^2 / 8).
[[nodiscard]] std::uint64_t all_to_all_wavelengths(std::uint64_t k);

/// Wavelengths needed for one WRHT grouping step with group size m:
/// floor(m/2) — both ring directions reuse the same set.
[[nodiscard]] std::uint64_t group_wavelengths(std::uint64_t m);

/// Builds the hierarchy for the given node list (ring order) with group
/// size m >= 2 under a budget of `wavelengths` per fiber. With
/// `allow_all_to_all` false the reduce stage always collapses to a single
/// root (used by the torus and mesh extensions, whose row phase needs one
/// rep per row).
[[nodiscard]] Hierarchy build_hierarchy(const std::vector<NodeId>& nodes,
                                        std::uint32_t group_size,
                                        std::uint32_t wavelengths,
                                        bool allow_all_to_all = true);

/// Convenience overload over nodes 0..num_nodes-1.
[[nodiscard]] Hierarchy build_hierarchy(std::uint32_t num_nodes,
                                        std::uint32_t group_size,
                                        std::uint32_t wavelengths,
                                        bool allow_all_to_all = true);

}  // namespace wrht::core
