#include "wrht/collectives/schedule.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/ring_primitives.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/mesh_wrht.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/topo/mesh.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht::coll {
namespace {

TEST(Schedule, BasicAccessors) {
  Schedule s("test", 4, 100);
  EXPECT_EQ(s.algorithm(), "test");
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.elements(), 100u);
  EXPECT_EQ(s.num_steps(), 0u);
}

TEST(Schedule, AddStepAndTraffic) {
  Schedule s("test", 4, 100);
  Step& a = s.add_step("first");
  a.transfers.push_back(Transfer{0, 1, 0, 50, TransferKind::kReduce, {}});
  a.transfers.push_back(Transfer{2, 3, 50, 50, TransferKind::kCopy, {}});
  Step& b = s.add_step("second");
  b.transfers.push_back(Transfer{1, 2, 0, 100, TransferKind::kReduce, {}});
  EXPECT_EQ(s.num_steps(), 2u);
  EXPECT_EQ(s.total_traffic_elements(), 200u);
  EXPECT_EQ(s.max_transfer_elements(0), 50u);
  EXPECT_EQ(s.max_transfer_elements(1), 100u);
  EXPECT_EQ(s.steps()[0].label, "first");
  s.validate();
}

TEST(Schedule, ValidateRejectsBadNodeIds) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 5, 0, 10, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateRejectsSelfTransfer) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{1, 1, 0, 10, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ValidateRejectsOutOfRangeElements) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 8, 5, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

// offset + count wraps for these; a check that adds them lets them pass.
TEST(Schedule, ValidateRejectsWrappingElementRanges) {
  const std::size_t max = SIZE_MAX;
  for (const auto& [offset, count] :
       {std::pair{max, std::size_t{2}}, std::pair{max - 1, std::size_t{3}}}) {
    Schedule s("test", 2, 4);
    s.add_step().transfers.push_back(
        Transfer{0, 1, offset, count, TransferKind::kReduce, {}});
    EXPECT_THROW(s.validate(), InvalidArgument) << offset << "/" << count;
  }
  // The last element and the whole vector stay in range.
  Schedule edge("test", 2, 4);
  edge.add_step().transfers.push_back(
      Transfer{0, 1, 3, 1, TransferKind::kReduce, {}});
  edge.add_step().transfers.push_back(
      Transfer{1, 0, 0, 4, TransferKind::kCopy, {}});
  EXPECT_NO_THROW(edge.validate());
}

// Builders write millions of these; see DESIGN.md "Scale path".
static_assert(sizeof(Transfer) == 32);
static_assert(std::is_trivially_copyable_v<Transfer>);

TEST(Schedule, ValidateRejectsEmptyTransfer) {
  Schedule s("test", 2, 10);
  s.add_step().transfers.push_back(
      Transfer{0, 1, 0, 0, TransferKind::kReduce, {}});
  EXPECT_THROW(s.validate(), InvalidArgument);
}

TEST(Schedule, ConstructionValidation) {
  EXPECT_THROW(Schedule("x", 0, 10), InvalidArgument);
  EXPECT_THROW(Schedule("x", 2, 0), InvalidArgument);
  Schedule s("x", 2, 1);
  EXPECT_THROW(s.max_transfer_elements(0), InvalidArgument);
}

TEST(ChunkRange, PartitionsExactly) {
  // Chunks must tile [0, elements) without gaps or overlaps.
  for (std::size_t elements : {1u, 7u, 16u, 100u, 1023u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 5u, 16u}) {
      std::size_t expect_offset = 0;
      std::size_t total = 0;
      for (std::size_t i = 0; i < chunks; ++i) {
        const ChunkRange r = chunk_range(elements, chunks, i);
        EXPECT_EQ(r.offset, expect_offset);
        expect_offset += r.count;
        total += r.count;
      }
      EXPECT_EQ(total, elements);
    }
  }
}

TEST(ChunkRange, Balanced) {
  // Any two chunks differ by at most one element.
  const std::size_t elements = 103, chunks = 10;
  std::size_t min_c = elements, max_c = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const ChunkRange r = chunk_range(elements, chunks, i);
    min_c = std::min(min_c, r.count);
    max_c = std::max(max_c, r.count);
  }
  EXPECT_LE(max_c - min_c, 1u);
}

TEST(ChunkRange, MoreChunksThanElements) {
  // Trailing chunks are empty but still validly placed.
  const ChunkRange r = chunk_range(3, 5, 4);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.offset, 3u);
}

TEST(ChunkRange, Validation) {
  EXPECT_THROW(chunk_range(10, 0, 0), InvalidArgument);
  EXPECT_THROW(chunk_range(10, 3, 3), InvalidArgument);
}

TEST(ReconfigDeltas, ColdStartAddsEverything) {
  Schedule s("test", 4, 16);
  Step& step = s.add_step();
  step.transfers.push_back({0, 1, 0, 8, TransferKind::kReduce, {}});
  step.transfers.push_back({2, 3, 8, 8, TransferKind::kReduce, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].added.size(), 2u);
  EXPECT_TRUE(deltas[0].removed.empty());
  EXPECT_EQ(deltas[0].kept, 0u);
  EXPECT_FALSE(deltas[0].reconfig_free());
}

TEST(ReconfigDeltas, RepeatedCircuitsAreFree) {
  // Same (src, dst, direction) circuits step after step: only step 0
  // retunes, even when offsets/counts/kinds differ (Ring All-reduce).
  Schedule s("test", 4, 16);
  for (int i = 0; i < 3; ++i) {
    Step& step = s.add_step();
    step.transfers.push_back(
        {0, 1, static_cast<std::size_t>(4 * i), 4,
         i < 2 ? TransferKind::kReduce : TransferKind::kCopy, {}});
  }
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_FALSE(deltas[0].reconfig_free());
  EXPECT_TRUE(deltas[1].reconfig_free());
  EXPECT_EQ(deltas[1].kept, 1u);
  EXPECT_TRUE(deltas[2].reconfig_free());
  EXPECT_TRUE(is_reconfig_free(s));
}

TEST(ReconfigDeltas, DirectionChangeRetunes) {
  // Pinning the same (src, dst) pair to a different ring direction is a
  // different circuit: the micro-rings on the other arc must be tuned.
  Schedule s("test", 4, 16);
  s.add_step().transfers.push_back(
      {0, 1, 0, 8, TransferKind::kReduce, topo::Direction::kClockwise});
  s.add_step().transfers.push_back(
      {0, 1, 0, 8, TransferKind::kReduce,
       topo::Direction::kCounterClockwise});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].added.size(), 1u);
  EXPECT_EQ(deltas[1].removed.size(), 1u);
  EXPECT_EQ(deltas[1].kept, 0u);
  EXPECT_FALSE(is_reconfig_free(s));
}

TEST(ReconfigDeltas, PartialOverlapCountsKept) {
  Schedule s("test", 6, 16);
  Step& a = s.add_step();
  a.transfers.push_back({0, 1, 0, 8, TransferKind::kReduce, {}});
  a.transfers.push_back({2, 3, 0, 8, TransferKind::kReduce, {}});
  Step& b = s.add_step();
  b.transfers.push_back({2, 3, 8, 8, TransferKind::kReduce, {}});
  b.transfers.push_back({4, 5, 8, 8, TransferKind::kReduce, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].kept, 1u);
  EXPECT_EQ(deltas[1].added.size(), 1u);
  EXPECT_EQ(deltas[1].removed.size(), 1u);
}

TEST(ReconfigDeltas, DuplicateTransfersShareOneCircuit) {
  // Two transfers over the same circuit in one step light it once.
  Schedule s("test", 4, 16);
  Step& step = s.add_step();
  step.transfers.push_back({0, 1, 0, 4, TransferKind::kReduce, {}});
  step.transfers.push_back({0, 1, 8, 4, TransferKind::kCopy, {}});
  const auto deltas = reconfig_deltas(s);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].added.size(), 1u);
}

/// Bytes the transfers of `s` occupy: all an exactly reserving builder
/// takes from the schedule's arena.
std::size_t transfer_bytes(const Schedule& s) {
  std::size_t transfers = 0;
  for (const Step& step : s.steps()) transfers += step.transfers.size();
  return transfers * sizeof(Transfer);
}

// The reserve contract of Schedule::add_step: a builder that reserves
// every step leaves no outgrown vector block behind in its arena. A
// builder that lets the vectors double holds about twice its transfers.
TEST(ScheduleArena, ReservingBuildersHoldExactlyTheirTransfers) {
  std::vector<Schedule> built;
  for (const std::uint32_t n : {2u, 5u, 16u, 33u}) {
    built.push_back(ring_allreduce(n, 1000));
    built.push_back(ring_reduce_scatter(n, 1000));
    built.push_back(ring_allgather(n, 1000));
    built.push_back(hring_allreduce(n, 1000, 2));
    built.push_back(hring_allreduce(n, 1000, 3));  // ragged last group
    built.push_back(hring_allreduce(n, 1000, 8));
    for (const bool all_to_all : {true, false}) {
      core::WrhtOptions options;
      options.group_size = 3;
      options.wavelengths = 2;
      options.allow_all_to_all = all_to_all;
      built.push_back(core::wrht_allreduce(n, 1000, options));
    }
  }
  core::WrhtOptions grid;
  grid.group_size = 3;
  grid.wavelengths = 4;
  built.push_back(core::torus_wrht_allreduce(topo::Torus(4, 4), 64, grid));
  built.push_back(core::torus_wrht_allreduce(topo::Torus(6, 7), 64, grid));
  built.push_back(core::mesh_wrht_allreduce(topo::Mesh(4, 7), 64, grid));
  grid.wavelengths = 1;  // the column reduces and broadcasts by levels
  built.push_back(core::mesh_wrht_allreduce(topo::Mesh(9, 4), 64, grid));

  for (const Schedule& s : built) {
    ASSERT_NE(s.arena(), nullptr);
    EXPECT_GT(transfer_bytes(s), 0u) << s.algorithm();
    EXPECT_EQ(s.arena()->bytes_allocated(), transfer_bytes(s))
        << s.algorithm() << " N=" << s.num_nodes();
  }
}

// A copy (the sweep cache's patch path) lays its transfers out exactly,
// in one arena chunk, whatever its source did.
TEST(ScheduleArena, CopiesHoldExactlyTheirTransfersInOneChunk) {
  Schedule s("test", 1000, 16);
  for (int k = 0; k < 3; ++k) {
    Step& step = s.add_step();
    for (NodeId i = 0; i + 1 < 1000; ++i) {
      step.transfers.push_back({i, i + 1, 0, 16, TransferKind::kReduce, {}});
    }
  }
  ASSERT_GT(s.arena()->bytes_allocated(), transfer_bytes(s));
  ASSERT_GT(s.arena()->chunks(), 1u);
  const Schedule copy(s);
  EXPECT_EQ(copy.arena()->bytes_allocated(), transfer_bytes(copy));
  EXPECT_EQ(copy.arena()->chunks(), 1u);
}

}  // namespace
}  // namespace wrht::coll
