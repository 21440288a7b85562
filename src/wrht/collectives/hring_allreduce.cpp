#include "wrht/collectives/hring_allreduce.hpp"

#include <cmath>
#include <vector>

#include "wrht/common/error.hpp"

namespace wrht::coll {

namespace {

struct Group {
  std::uint32_t start;  // first node id
  std::uint32_t size;
  [[nodiscard]] NodeId member(std::uint32_t j) const { return start + j; }
  [[nodiscard]] NodeId leader() const { return start + size / 2; }
};

std::vector<Group> make_groups(std::uint32_t n, std::uint32_t m) {
  std::vector<Group> groups;
  for (std::uint32_t start = 0; start < n; start += m) {
    groups.push_back(Group{start, std::min(m, n - start)});
  }
  return groups;
}

}  // namespace

Schedule hring_allreduce(std::uint32_t num_nodes, std::size_t elements,
                         std::uint32_t group_size) {
  require(num_nodes >= 2, "hring: need at least 2 nodes");
  require(group_size >= 2, "hring: group_size must be >= 2");
  require(elements >= num_nodes, "hring: need elements >= num_nodes");
  Schedule sched("hring", num_nodes, elements);

  const auto groups = make_groups(num_nodes, group_size);
  const std::uint32_t num_groups = static_cast<std::uint32_t>(groups.size());
  std::uint32_t max_size = 0;
  for (const auto& g : groups) max_size = std::max(max_size, g.size);
  sched.reserve_steps(hring_builder_steps(num_nodes, group_size));
  // Intra step t moves one chunk per member of every group still running
  // its ring (groups of size > t + 1).
  auto intra_transfers = [&](std::uint32_t t) {
    std::size_t count = 0;
    for (const auto& g : groups) {
      if (t + 1 < g.size) count += g.size;
    }
    return count;
  };

  // Stage A: ring all-reduce within every group concurrently. Group-local
  // neighbour transfers go clockwise; the wrap transfer (last member back to
  // the first) goes counterclockwise so it stays inside the group's arc.
  auto intra_dir = [&](const Group& g, std::uint32_t j) {
    return (j + 1 < g.size) ? topo::Direction::kClockwise
                            : topo::Direction::kCounterClockwise;
  };
  for (std::uint32_t t = 0; t + 1 < max_size; ++t) {
    Step& step = sched.add_step("intra reduce-scatter " + std::to_string(t));
    step.transfers.reserve(intra_transfers(t));
    for (const auto& g : groups) {
      if (g.size < 2 || t + 1 >= g.size) continue;
      for (std::uint32_t j = 0; j < g.size; ++j) {
        const std::uint32_t chunk = (j + g.size - t % g.size) % g.size;
        const ChunkRange r = chunk_range(elements, g.size, chunk);
        if (r.count == 0) continue;
        step.transfers.push_back(Transfer{g.member(j),
                                          g.member((j + 1) % g.size), r.offset,
                                          r.count, TransferKind::kReduce,
                                          intra_dir(g, j)});
      }
    }
  }
  for (std::uint32_t t = 0; t + 1 < max_size; ++t) {
    Step& step = sched.add_step("intra all-gather " + std::to_string(t));
    step.transfers.reserve(intra_transfers(t));
    for (const auto& g : groups) {
      if (g.size < 2 || t + 1 >= g.size) continue;
      for (std::uint32_t j = 0; j < g.size; ++j) {
        const std::uint32_t chunk = (j + 1 + g.size - t % g.size) % g.size;
        const ChunkRange r = chunk_range(elements, g.size, chunk);
        if (r.count == 0) continue;
        step.transfers.push_back(Transfer{g.member(j),
                                          g.member((j + 1) % g.size), r.offset,
                                          r.count, TransferKind::kCopy,
                                          intra_dir(g, j)});
      }
    }
  }

  if (num_groups > 1) {
    // Stage B: ring all-reduce across the leaders. All leader-to-leader
    // transfers travel clockwise; their arcs tile the ring without overlap.
    for (std::uint32_t t = 0; t + 1 < num_groups; ++t) {
      Step& step = sched.add_step("inter reduce-scatter " + std::to_string(t));
      step.transfers.reserve(num_groups);
      for (std::uint32_t j = 0; j < num_groups; ++j) {
        const std::uint32_t chunk = (j + num_groups - t % num_groups) %
                                    num_groups;
        const ChunkRange r = chunk_range(elements, num_groups, chunk);
        if (r.count == 0) continue;
        step.transfers.push_back(Transfer{
            groups[j].leader(), groups[(j + 1) % num_groups].leader(),
            r.offset, r.count, TransferKind::kReduce,
            topo::Direction::kClockwise});
      }
    }
    for (std::uint32_t t = 0; t + 1 < num_groups; ++t) {
      Step& step = sched.add_step("inter all-gather " + std::to_string(t));
      step.transfers.reserve(num_groups);
      for (std::uint32_t j = 0; j < num_groups; ++j) {
        const std::uint32_t chunk = (j + 1 + num_groups - t % num_groups) %
                                    num_groups;
        const ChunkRange r = chunk_range(elements, num_groups, chunk);
        if (r.count == 0) continue;
        step.transfers.push_back(Transfer{
            groups[j].leader(), groups[(j + 1) % num_groups].leader(),
            r.offset, r.count, TransferKind::kCopy,
            topo::Direction::kClockwise});
      }
    }

    // Stage C: every leader pushes the final vector to its members in one
    // optical step; members left of the leader are reached counterclockwise,
    // members right of it clockwise, so paths stay inside the group's arc.
    Step& step = sched.add_step("leader broadcast");
    step.transfers.reserve(num_nodes - num_groups);
    for (const auto& g : groups) {
      const NodeId leader = g.leader();
      for (std::uint32_t j = 0; j < g.size; ++j) {
        const NodeId member = g.member(j);
        if (member == leader) continue;
        const auto dir = member < leader ? topo::Direction::kCounterClockwise
                                         : topo::Direction::kClockwise;
        step.transfers.push_back(Transfer{leader, member, 0, elements,
                                          TransferKind::kCopy, dir});
      }
    }
  }
  return sched;
}

std::uint64_t hring_steps(std::uint32_t num_nodes, std::uint32_t group_size,
                          std::uint32_t wavelengths) {
  require(num_nodes >= 2 && group_size >= 2 && wavelengths >= 1,
          "hring_steps: bad parameters");
  const double n = num_nodes;
  const double m = group_size;
  if (group_size <= wavelengths) {
    return static_cast<std::uint64_t>(std::ceil(2.0 * (m * m + n) / m)) - 3;
  }
  return static_cast<std::uint64_t>(std::ceil(2.0 * (2.0 * m * m + n) / m)) -
         6;
}

std::uint64_t hring_builder_steps(std::uint32_t num_nodes,
                                  std::uint32_t group_size) {
  const std::uint32_t max_size = std::min(group_size, num_nodes);
  const std::uint64_t num_groups = (num_nodes + group_size - 1) / group_size;
  std::uint64_t steps = 2ull * (max_size - 1);
  if (num_groups > 1) steps += 2ull * (num_groups - 1) + 1;
  return steps;
}

}  // namespace wrht::coll
