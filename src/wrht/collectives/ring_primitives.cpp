#include "wrht/collectives/ring_primitives.hpp"

#include <numeric>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

constexpr topo::DirectionHint kCw = topo::Direction::kClockwise;

}  // namespace

Schedule ring_reduce_scatter(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_reduce_scatter: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_reduce_scatter: need at least one element per chunk");
  Schedule sched("ring_reduce_scatter", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  const std::vector<NodeId> members = ring_members(n);
  const std::vector<ChunkRange> chunks = chunk_ranges(elements, n);
  sched.reserve_steps(n - 1);
  // At step t node i forwards chunk (i - 1 - t) mod n clockwise; after
  // n-1 steps node i fully owns chunk i.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
    step.transfers.reserve(n);
    append_ring_step(step.transfers, members, chunks, (2 * n - 1 - t) % n,
                     TransferKind::kReduce, kCw, kCw);
  }
  return sched;
}

Schedule ring_allgather(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_allgather: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_allgather: need at least one element per chunk");
  Schedule sched("ring_allgather", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  const std::vector<NodeId> members = ring_members(n);
  const std::vector<ChunkRange> chunks = chunk_ranges(elements, n);
  sched.reserve_steps(n - 1);
  // At step t node i forwards chunk (i - t) mod n clockwise, starting with
  // its own chunk; after n-1 steps everyone has every chunk.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
    step.transfers.reserve(n);
    append_ring_step(step.transfers, members, chunks, (n - t) % n,
                     TransferKind::kCopy, kCw, kCw);
  }
  return sched;
}

std::vector<NodeId> ring_members(std::uint32_t num_nodes) {
  std::vector<NodeId> members(num_nodes);
  std::iota(members.begin(), members.end(), NodeId{0});
  return members;
}

void append_ring_step(TransferList& out, std::span<const NodeId> members,
                      std::span<const ChunkRange> chunks, std::uint32_t first,
                      TransferKind kind, topo::DirectionHint forward,
                      topo::DirectionHint wrap) {
  require(!members.empty(), "append_ring_step: need at least one member");
  require(chunks.size() == members.size(),
          "append_ring_step: need one chunk per member");
  require(first < members.size(),
          "append_ring_step: first chunk index out of range");
  const auto size = static_cast<std::uint32_t>(members.size());
  std::uint32_t chunk = first;
  for (std::uint32_t j = 0; j + 1 < size; ++j) {
    const ChunkRange r = chunks[chunk];
    out.push_back(
        Transfer{members[j], members[j + 1], r.offset, r.count, kind, forward});
    if (++chunk == size) chunk = 0;
  }
  const ChunkRange r = chunks[chunk];
  out.push_back(
      Transfer{members[size - 1], members[0], r.offset, r.count, kind, wrap});
}

}  // namespace wrht::coll
