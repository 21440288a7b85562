// Standalone ring collective primitives: reduce-scatter and all-gather,
// the two halves of Ring All-reduce exposed as independent schedules (the
// NCCL-style primitive set). Useful for composing custom collectives and
// for the gradient-bucketing training pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wrht/collectives/schedule.hpp"

namespace wrht::coll {

/// N-1 steps; afterwards node i fully owns the global sum of chunk i
/// (chunks = num_nodes, balanced via chunk_range).
[[nodiscard]] Schedule ring_reduce_scatter(std::uint32_t num_nodes,
                                           std::size_t elements);

/// N-1 steps; assumes node i initially owns (only) chunk i and finishes
/// with every node holding all chunks.
[[nodiscard]] Schedule ring_allgather(std::uint32_t num_nodes,
                                      std::size_t elements);

/// Node ids 0, 1, ..., num_nodes - 1: the members of a flat ring.
[[nodiscard]] std::vector<NodeId> ring_members(std::uint32_t num_nodes);

/// Appends one step of a ring pass, the building block of every
/// ring-family builder (ring, reduce-scatter, all-gather, H-Ring):
/// `members[j]` sends chunk `(first + j) mod size` of `chunks` to
/// `members[(j + 1) mod size]`, in member order, where size =
/// members.size() == chunks.size(). Every hop travels `forward` except the
/// one from the last member back to the first, which travels `wrap`. The
/// chunk index advances by compare-and-wrap, so no transfer divides.
/// Throws InvalidArgument, appending nothing, when `members` is empty,
/// `chunks` is not the same size or `first` >= size; checked once per
/// call, not per transfer.
void append_ring_step(TransferList& out, std::span<const NodeId> members,
                      std::span<const ChunkRange> chunks, std::uint32_t first,
                      TransferKind kind, topo::DirectionHint forward,
                      topo::DirectionHint wrap);

}  // namespace wrht::coll
