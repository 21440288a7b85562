#include "wrht/collectives/ring_primitives.hpp"

#include "wrht/common/error.hpp"

namespace wrht::coll {

Schedule ring_reduce_scatter(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_reduce_scatter: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_reduce_scatter: need at least one element per chunk");
  Schedule sched("ring_reduce_scatter", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  sched.reserve_steps(n - 1);
  // At step t node i forwards chunk (i - 1 - t) mod n clockwise; after
  // n-1 steps node i fully owns chunk i.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + 2 * n - 1 - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{i, (i + 1) % n, r.offset, r.count,
                                        TransferKind::kReduce,
                                        topo::Direction::kClockwise});
    }
  }
  return sched;
}

Schedule ring_allgather(std::uint32_t num_nodes, std::size_t elements) {
  require(num_nodes >= 2, "ring_allgather: need at least 2 nodes");
  require(elements >= num_nodes,
          "ring_allgather: need at least one element per chunk");
  Schedule sched("ring_allgather", num_nodes, elements);
  const std::uint32_t n = num_nodes;
  sched.reserve_steps(n - 1);
  // At step t node i forwards chunk (i - t) mod n clockwise, starting with
  // its own chunk; after n-1 steps everyone has every chunk.
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
    step.transfers.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + n - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{i, (i + 1) % n, r.offset, r.count,
                                        TransferKind::kCopy,
                                        topo::Direction::kClockwise});
    }
  }
  return sched;
}

}  // namespace wrht::coll
