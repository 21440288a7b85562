#include "wrht/collectives/ring_allreduce.hpp"

#include "wrht/common/error.hpp"

namespace wrht::coll {

Schedule ring_allreduce(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_allreduce: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_allreduce: need at least one element per chunk");
  Schedule sched("ring", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  // elements >= n, so every chunk is non-empty: n transfers per step.
  sched.reserve_steps(2 * (n - 1));

  // Reduce-scatter: at step t node i forwards chunk (i - t) mod n to its
  // clockwise neighbour, which accumulates it. After n-1 steps node i fully
  // owns chunk (i + 1) mod n.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + n - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{
          i, (i + 1) % n, r.offset, r.count, TransferKind::kReduce,
          topo::Direction::kClockwise});
    }
  }

  // All-gather: at step t node i forwards its completed chunk
  // (i + 1 - t) mod n to its clockwise neighbour, which overwrites.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + 1 + n - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{
          i, (i + 1) % n, r.offset, r.count, TransferKind::kCopy,
          topo::Direction::kClockwise});
    }
  }
  return sched;
}

std::uint64_t ring_allreduce_steps(std::uint32_t num_nodes) {
  require(num_nodes >= 1, "ring_allreduce_steps: empty system");
  return 2ull * (num_nodes - 1);
}

}  // namespace wrht::coll
