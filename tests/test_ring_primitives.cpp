#include "wrht/collectives/ring_primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(RingReduceScatter, CorrectAcrossSizes) {
  for (std::uint32_t n : {2u, 3u, 5u, 8u, 13u, 16u}) {
    const Schedule s = ring_reduce_scatter(n, 3 * n + 1);
    const verify::OracleReport oracle = verify::check_reduce_scatter(s, n);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(RingReduceScatter, HasNMinusOneSteps) {
  EXPECT_EQ(ring_reduce_scatter(8, 16).num_steps(), 7u);
  EXPECT_EQ(ring_reduce_scatter(2, 4).num_steps(), 1u);
}

TEST(RingReduceScatter, PayloadIsOneChunkPerStep) {
  const Schedule s = ring_reduce_scatter(8, 64);
  for (std::size_t i = 0; i < s.num_steps(); ++i) {
    EXPECT_EQ(s.max_transfer_elements(i), 8u);
  }
}

TEST(RingReduceScatter, AllTransfersReduce) {
  const Schedule s = ring_reduce_scatter(5, 10);
  for (const auto& step : s.steps()) {
    for (const auto& t : step.transfers) {
      EXPECT_EQ(t.kind, TransferKind::kReduce);
      EXPECT_EQ(t.dst, (t.src + 1) % 5);
    }
  }
}

TEST(RingAllgather, CorrectAcrossSizes) {
  for (std::uint32_t n : {2u, 3u, 5u, 8u, 13u, 16u}) {
    const Schedule s = ring_allgather(n, 3 * n + 1);
    const verify::OracleReport oracle = verify::check_allgather(s, n);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(RingAllgather, AllTransfersCopy) {
  const Schedule s = ring_allgather(5, 10);
  EXPECT_EQ(s.num_steps(), 4u);
  for (const auto& step : s.steps()) {
    for (const auto& t : step.transfers) {
      EXPECT_EQ(t.kind, TransferKind::kCopy);
    }
  }
}

TEST(RingPrimitives, ComposeIntoAllreduce) {
  // reduce-scatter followed by all-gather must be a full All-reduce.
  const std::uint32_t n = 6;
  const std::size_t elements = 18;
  Schedule composed("rs+ag", n, elements);
  const Schedule rs = ring_reduce_scatter(n, elements);
  const Schedule ag = ring_allgather(n, elements);
  for (const auto& step : rs.steps()) {
    composed.add_step(step.label).transfers = step.transfers;
  }
  for (const auto& step : ag.steps()) {
    composed.add_step(step.label).transfers = step.transfers;
  }
  const verify::OracleReport oracle = verify::check_allreduce(composed);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(RingPrimitives, Validation) {
  EXPECT_THROW(ring_reduce_scatter(1, 4), InvalidArgument);
  EXPECT_THROW(ring_reduce_scatter(8, 4), InvalidArgument);
  EXPECT_THROW(ring_allgather(1, 4), InvalidArgument);
  EXPECT_THROW(ring_allgather(8, 4), InvalidArgument);
}

// ------------------------------------------------------------------------
// The ring-family builders read a chunk table and advance by
// compare-and-wrap. These are the per-transfer `%` / chunk_range
// formulations they replaced, kept as the reference.

namespace reference {

Schedule ring_allreduce(std::uint32_t n, std::size_t elements) {
  Schedule sched("ring", n, elements);
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + n - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{i, (i + 1) % n, r.offset, r.count,
                                        TransferKind::kReduce,
                                        topo::Direction::kClockwise});
    }
  }
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t chunk = (i + 1 + n - t % n) % n;
      const ChunkRange r = chunk_range(elements, n, chunk);
      if (r.count == 0) continue;
      step.transfers.push_back(Transfer{i, (i + 1) % n, r.offset, r.count,
                                        TransferKind::kCopy,
                                        topo::Direction::kClockwise});
    }
  }
  return sched;
}

Schedule ring_reduce_scatter(std::uint32_t n, std::size_t elements) {
  Schedule sched("ring_reduce_scatter", n, elements);
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("reduce-scatter " + std::to_string(t));
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

Schedule ring_allgather(std::uint32_t n, std::size_t elements) {
  Schedule sched("ring_allgather", n, elements);
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    Step& step = sched.add_step("all-gather " + std::to_string(t));
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

struct Group {
  std::uint32_t start;
  std::uint32_t size;
  [[nodiscard]] NodeId member(std::uint32_t j) const { return start + j; }
  [[nodiscard]] NodeId leader() const { return start + size / 2; }
};

Schedule hring_allreduce(std::uint32_t n, std::size_t elements,
                         std::uint32_t m) {
  Schedule sched("hring", n, elements);
  std::vector<Group> groups;
  for (std::uint32_t start = 0; start < n; start += m) {
    groups.push_back(Group{start, std::min(m, n - start)});
  }
  const auto num_groups = static_cast<std::uint32_t>(groups.size());
  std::uint32_t max_size = 0;
  for (const auto& g : groups) max_size = std::max(max_size, g.size);
  auto intra_dir = [&](const Group& g, std::uint32_t j) {
    return (j + 1 < g.size) ? topo::Direction::kClockwise
                            : topo::Direction::kCounterClockwise;
  };
  for (const std::uint32_t shift : {0u, 1u}) {
    for (std::uint32_t t = 0; t + 1 < max_size; ++t) {
      Step& step = sched.add_step(
          (shift == 0 ? "intra reduce-scatter " : "intra all-gather ") +
          std::to_string(t));
      for (const auto& g : groups) {
        if (g.size < 2 || t + 1 >= g.size) continue;
        for (std::uint32_t j = 0; j < g.size; ++j) {
          const std::uint32_t chunk =
              (j + shift + g.size - t % g.size) % g.size;
          const ChunkRange r = chunk_range(elements, g.size, chunk);
          if (r.count == 0) continue;
          step.transfers.push_back(Transfer{
              g.member(j), g.member((j + 1) % g.size), r.offset, r.count,
              shift == 0 ? TransferKind::kReduce : TransferKind::kCopy,
              intra_dir(g, j)});
        }
      }
    }
  }
  if (num_groups > 1) {
    for (const std::uint32_t shift : {0u, 1u}) {
      for (std::uint32_t t = 0; t + 1 < num_groups; ++t) {
        Step& step = sched.add_step(
            (shift == 0 ? "inter reduce-scatter " : "inter all-gather ") +
            std::to_string(t));
        for (std::uint32_t j = 0; j < num_groups; ++j) {
          const std::uint32_t chunk =
              (j + shift + num_groups - t % num_groups) % num_groups;
          const ChunkRange r = chunk_range(elements, num_groups, chunk);
          if (r.count == 0) continue;
          step.transfers.push_back(Transfer{
              groups[j].leader(), groups[(j + 1) % num_groups].leader(),
              r.offset, r.count,
              shift == 0 ? TransferKind::kReduce : TransferKind::kCopy,
              topo::Direction::kClockwise});
        }
      }
    }
    Step& step = sched.add_step("leader broadcast");
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

}  // namespace reference

/// The first difference between two schedules, or "" when they are equal
/// in every step label and every transfer field.
std::string first_difference(const Schedule& want, const Schedule& got) {
  if (want.algorithm() != got.algorithm()) return "algorithm";
  if (want.num_steps() != got.num_steps()) return "step count";
  for (std::size_t s = 0; s < want.num_steps(); ++s) {
    const Step& a = want.steps()[s];
    const Step& b = got.steps()[s];
    const std::string at = "step " + std::to_string(s) + " ";
    if (a.label != b.label) return at + "label";
    if (a.transfers.size() != b.transfers.size()) return at + "size";
    for (std::size_t i = 0; i < a.transfers.size(); ++i) {
      const Transfer& x = a.transfers[i];
      const Transfer& y = b.transfers[i];
      if (x.src != y.src || x.dst != y.dst || x.offset != y.offset ||
          x.count != y.count || x.kind != y.kind ||
          x.direction != y.direction) {
        return at + "transfer " + std::to_string(i);
      }
    }
  }
  return "";
}

TEST(RingBuilders, ChunkTableMatchesPerTransferDivision) {
  std::size_t compared = 0;
  for (std::uint32_t n = 2; n <= 70; ++n) {
    for (const std::size_t elements :
         {std::size_t{n}, std::size_t{n} + 1, 2 * std::size_t{n} - 1,
          std::size_t{1'000'003}}) {
      const std::string where =
          "N=" + std::to_string(n) + " elements=" + std::to_string(elements);
      EXPECT_EQ(first_difference(reference::ring_allreduce(n, elements),
                                 ring_allreduce(n, elements)),
                "")
          << "ring " << where;
      EXPECT_EQ(first_difference(reference::ring_reduce_scatter(n, elements),
                                 ring_reduce_scatter(n, elements)),
                "")
          << "reduce-scatter " << where;
      EXPECT_EQ(first_difference(reference::ring_allgather(n, elements),
                                 ring_allgather(n, elements)),
                "")
          << "all-gather " << where;
      compared += 3;
      for (const std::uint32_t m : {2u, 3u, 5u, n}) {
        EXPECT_EQ(first_difference(reference::hring_allreduce(n, elements, m),
                                   hring_allreduce(n, elements, m)),
                  "")
            << "hring m=" << m << " " << where;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 69u * 4u * 7u);
}

TEST(RingBuilders, AppendRingStepRejectsBadSpans) {
  const std::vector<NodeId> members = {0, 1, 2};
  const std::vector<ChunkRange> chunks = chunk_ranges(9, 3);
  const std::vector<ChunkRange> four = chunk_ranges(9, 4);
  const struct {
    const char* name;
    std::span<const NodeId> members;
    std::span<const ChunkRange> chunks;
    std::uint32_t first;
    const char* message;
  } cases[] = {
      {"empty spans", {}, {}, 0,
       "append_ring_step: need at least one member"},
      {"empty members", {}, chunks, 0,
       "append_ring_step: need at least one member"},
      {"fewer chunks", members, std::span(chunks).first(2), 0,
       "append_ring_step: need one chunk per member"},
      {"more chunks", members, four, 0,
       "append_ring_step: need one chunk per member"},
      {"first == size", members, chunks, 3,
       "append_ring_step: first chunk index out of range"},
      {"first > size", members, chunks, 7,
       "append_ring_step: first chunk index out of range"},
  };
  for (const auto& c : cases) {
    TransferList out;
    out.push_back(Transfer{4, 5, 0, 1, TransferKind::kCopy, std::nullopt});
    try {
      append_ring_step(out, c.members, c.chunks, c.first,
                       TransferKind::kReduce, topo::Direction::kClockwise,
                       topo::Direction::kClockwise);
      ADD_FAILURE() << c.name << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), c.message) << c.name;
    }
    EXPECT_EQ(out.size(), 1u) << c.name << " appended before throwing";
  }

  // The largest valid first chunk still appends one ring pass.
  TransferList out;
  append_ring_step(out, members, chunks, 2, TransferKind::kReduce,
                   topo::Direction::kClockwise, topo::Direction::kClockwise);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].offset, chunks[2].offset);
  EXPECT_EQ(out[2].src, 2u);
  EXPECT_EQ(out[2].dst, 0u);
}

}  // namespace
}  // namespace wrht::coll
