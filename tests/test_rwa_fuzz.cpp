// Randomized property tests for the RWA engine and conflict detection:
// whatever random transfer sets we throw at it, every assignment it
// returns must be conflict-free, honour hints, and stay within the budget;
// deliberately corrupted assignments must be caught by count_conflicts.
#include <gtest/gtest.h>

#include "wrht/common/rng.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {
namespace {

using coll::Transfer;
using coll::TransferKind;
using topo::Direction;
using topo::Ring;

std::vector<Transfer> random_transfers(Rng& rng, std::uint32_t n,
                                       std::size_t count) {
  std::vector<Transfer> transfers;
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    auto dst = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
    if (dst == src) dst = (dst + 1) % n;
    std::optional<Direction> dir;
    switch (rng.uniform_int(0, 2)) {
      case 0: dir = Direction::kClockwise; break;
      case 1: dir = Direction::kCounterClockwise; break;
      default: break;
    }
    transfers.push_back(
        Transfer{src, dst, 0, 1 + rng.uniform_int(0, 99),
                 TransferKind::kReduce, dir});
  }
  return transfers;
}

class RwaFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RwaFuzz, SingleRoundAssignmentsAreAlwaysConflictFree) {
  Rng rng(GetParam());
  const std::uint32_t n = 16 + static_cast<std::uint32_t>(
                                   rng.uniform_int(0, 48));
  const Ring ring(n);
  const auto transfers = random_transfers(rng, n, 2 * n);
  const RwaResult res =
      assign_wavelengths(ring, transfers, RwaOptions{4 * n});
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(count_conflicts(res.paths, n), 0u);
  EXPECT_LE(res.wavelengths_used, 4 * n);
}

TEST_P(RwaFuzz, HintsAlwaysHonoured) {
  Rng rng(GetParam() + 1000);
  const std::uint32_t n = 24;
  const Ring ring(n);
  const auto transfers = random_transfers(rng, n, n);
  const RwaResult res =
      assign_wavelengths(ring, transfers, RwaOptions{4 * n});
  ASSERT_TRUE(res.ok);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    if (transfers[i].direction) {
      EXPECT_EQ(res.paths[i].direction, *transfers[i].direction);
    }
  }
}

TEST_P(RwaFuzz, RoundsPartitionAndStayConflictFree) {
  Rng rng(GetParam() + 2000);
  const std::uint32_t n = 20;
  const Ring ring(n);
  const auto transfers = random_transfers(rng, n, 3 * n);
  const std::uint32_t budget =
      2 + static_cast<std::uint32_t>(rng.uniform_int(0, 6));
  const RoundsResult res =
      assign_rounds(ring, transfers, RwaOptions{budget});
  std::vector<int> seen(transfers.size(), 0);
  for (std::size_t r = 0; r < res.rounds.size(); ++r) {
    EXPECT_EQ(count_conflicts(res.paths[r], n), 0u) << "round " << r;
    for (const std::size_t idx : res.rounds[r]) ++seen[idx];
    for (const auto& path : res.paths[r]) {
      EXPECT_LT(path.wavelength, budget);
    }
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST_P(RwaFuzz, RotatingEveryNodeShiftsOnlyTheSegments) {
  // The ring has no origin: rotating every node id by k keeps each
  // lightpath's round, direction, fiber and wavelength, and shifts its
  // first segment by k.
  Rng rng(GetParam() + 4000);
  const std::uint32_t n =
      8 + static_cast<std::uint32_t>(rng.uniform_int(0, 56));
  const Ring ring(n);
  const auto transfers = random_transfers(rng, n, 2 * n);
  const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, n - 1));
  std::vector<Transfer> turned = transfers;
  for (Transfer& t : turned) {
    t.src = (t.src + k) % n;
    t.dst = (t.dst + k) % n;
  }
  for (const std::uint32_t budget : {1u, 3u, 64u}) {
    for (const std::uint32_t fibers : {1u, 2u}) {
      const RwaOptions options{budget, fibers};
      const RoundsResult base = assign_rounds(ring, transfers, options);
      const RoundsResult moved = assign_rounds(ring, turned, options);
      ASSERT_EQ(moved.rounds, base.rounds) << "w=" << budget;
      EXPECT_EQ(moved.wavelengths_used, base.wavelengths_used);
      for (std::size_t r = 0; r < base.paths.size(); ++r) {
        for (std::size_t j = 0; j < base.paths[r].size(); ++j) {
          const Lightpath& a = base.paths[r][j];
          const Lightpath& b = moved.paths[r][j];
          EXPECT_TRUE(b.direction == a.direction && b.fiber == a.fiber &&
                      b.wavelength == a.wavelength && b.hops == a.hops &&
                      b.first_segment == (a.first_segment + k) % n)
              << "w=" << budget << " round " << r << " path " << j;
        }
      }
    }
  }
}

TEST_P(RwaFuzz, CorruptedAssignmentsAreDetected) {
  Rng rng(GetParam() + 3000);
  const std::uint32_t n = 16;
  const Ring ring(n);
  // Two overlapping transfers forced onto one wavelength by hand.
  const auto a = segment_span(ring, 0, 5, Direction::kClockwise);
  const auto b = segment_span(ring, 3, 8, Direction::kClockwise);
  std::vector<Lightpath> paths = {
      Lightpath{0, 5, Direction::kClockwise, 0, 0, a.first, a.hops},
      Lightpath{3, 8, Direction::kClockwise, 0, 0, b.first, b.hops}};
  EXPECT_EQ(count_conflicts(paths, n), 1u);
  // Separating wavelengths clears the conflict.
  paths[1].wavelength = 1;
  EXPECT_EQ(count_conflicts(paths, n), 0u);
  // Opposite fibers clear it too.
  paths[1].wavelength = 0;
  paths[1].fiber = 1;
  EXPECT_EQ(count_conflicts(paths, n), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RwaFuzz,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                         55u, 89u));

}  // namespace
}  // namespace wrht::optics
