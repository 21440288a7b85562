// Randomized property tests for the RWA engine and conflict detection:
// whatever random transfer sets we throw at it, every assignment it
// returns must be conflict-free, honour hints, and stay within the budget;
// deliberately corrupted assignments must be caught by count_conflicts,
// and both optical engines reject a step with splitting off exactly when
// its RWA takes a second round.
#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/optical/torus_network.hpp"

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
  const RoundsResult res = assign_rounds(ring, transfers, RwaOptions{4 * n});
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(count_conflicts(res.paths[0], n), 0u);
  EXPECT_LE(res.wavelengths_used, 4 * n);
}

TEST_P(RwaFuzz, HintsAlwaysHonoured) {
  Rng rng(GetParam() + 1000);
  const std::uint32_t n = 24;
  const Ring ring(n);
  const auto transfers = random_transfers(rng, n, n);
  const RoundsResult res = assign_rounds(ring, transfers, RwaOptions{4 * n});
  ASSERT_EQ(res.rounds.size(), 1u);
  for (std::size_t j = 0; j < res.rounds[0].size(); ++j) {
    const Transfer& t = transfers[res.rounds[0][j]];
    if (t.direction) {
      EXPECT_EQ(res.paths[0][j].direction, *t.direction);
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
  // lightpath's round, direction and wavelength, and shifts its first
  // segment by k.
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
    const RwaOptions options{budget};
    const RoundsResult base = assign_rounds(ring, transfers, options);
    const RoundsResult moved = assign_rounds(ring, turned, options);
    ASSERT_EQ(moved.rounds, base.rounds) << "w=" << budget;
    EXPECT_EQ(moved.wavelengths_used, base.wavelengths_used);
    for (std::size_t r = 0; r < base.paths.size(); ++r) {
      for (std::size_t j = 0; j < base.paths[r].size(); ++j) {
        const Lightpath& a = base.paths[r][j];
        const Lightpath& b = moved.paths[r][j];
        EXPECT_TRUE(b.direction == a.direction &&
                    b.wavelength == a.wavelength && b.hops == a.hops &&
                    b.first_segment == (a.first_segment + k) % n)
            << "w=" << budget << " round " << r << " path " << j;
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
      Lightpath{0, 5, Direction::kClockwise, 0, a.first, a.hops},
      Lightpath{3, 8, Direction::kClockwise, 0, b.first, b.hops}};
  EXPECT_EQ(count_conflicts(paths, n), 1u);
  // Separating wavelengths clears the conflict.
  paths[1].wavelength = 1;
  EXPECT_EQ(count_conflicts(paths, n), 0u);
}

/// `transfers` as the one step of an n-node schedule.
coll::Schedule one_step(std::uint32_t n,
                        const std::vector<Transfer>& transfers) {
  coll::Schedule schedule("fuzz", n, 100);
  schedule.add_step().transfers = transfers;
  return schedule;
}

TEST_P(RwaFuzz, SplittingOffRejectsExactlyTheMultiRoundSteps) {
  // With multi-round splitting off, an engine rejects a step exactly when
  // assign_rounds, under the same options and Rng seed, takes a second
  // round; otherwise it prices the step as the splitting-on run does.
  Rng draw(GetParam() + 5000);
  constexpr std::uint32_t kRows = 3;
  for (const std::uint32_t n : {8u, 16u, 32u}) {
    const Ring ring(n);
    const auto transfers = random_transfers(draw, n, n);
    // The torus carries the share on each of its rows, hints dropped.
    std::vector<Transfer> share = transfers;
    for (Transfer& t : share) t.direction = std::nullopt;
    const topo::Torus torus(kRows, n);
    std::vector<Transfer> rows;
    for (std::uint32_t r = 0; r < kRows; ++r) {
      for (Transfer t : share) {
        t.src = torus.node_at(r, t.src);
        t.dst = torus.node_at(r, t.dst);
        rows.push_back(t);
      }
    }
    const coll::Schedule flat = one_step(n, transfers);
    const coll::Schedule grid = one_step(torus.size(), rows);
    for (const std::uint32_t budget : {1u, 2u, 4u, 64u}) {
      for (const RwaPolicy policy :
           {RwaPolicy::kFirstFit, RwaPolicy::kRandomFit}) {
        const std::uint64_t seed = 7 * budget + n;
        const RwaOptions options{budget, policy};
        OpticalConfig on;
        on.wavelengths = budget;
        on.rwa_policy = policy;
        on.rwa_threads = 1;
        OpticalConfig off = on;
        off.allow_multi_round_steps = false;
        const std::string where =
            "n=" + std::to_string(n) + " w=" + std::to_string(budget) +
            (policy == RwaPolicy::kFirstFit ? " first-fit" : " random-fit");

        // The ring: one assign_rounds over the step.
        Rng rwa_rng(seed);
        const bool ring_splits =
            assign_rounds(ring, transfers, options, &rwa_rng).rounds.size() > 1;
        Rng off_rng(seed), on_rng(seed);
        const RingNetwork ring_off(n, off);
        if (ring_splits) {
          EXPECT_THROW((void)ring_off.execute(flat, &off_rng),
                       InfeasibleSchedule)
              << where;
        } else {
          const OpticalRunResult got = ring_off.execute(flat, &off_rng);
          const OpticalRunResult want =
              RingNetwork(n, on).execute(flat, &on_rng);
          EXPECT_EQ(got.total_rounds, want.total_rounds) << where;
          EXPECT_EQ(got.total_time.count(), want.total_time.count()) << where;
          EXPECT_EQ(got.max_wavelengths_used, want.max_wavelengths_used)
              << where;
        }

        // The torus: one assign_rounds per row, drawing from one Rng in
        // row order.
        Rng share_rng(seed);
        bool torus_splits = false;
        for (std::uint32_t r = 0; r < kRows; ++r) {
          const RoundsResult row =
              assign_rounds(ring, share, options, &share_rng);
          torus_splits = torus_splits || row.rounds.size() > 1;
        }
        Rng torus_off_rng(seed), torus_on_rng(seed);
        const TorusNetwork torus_off(torus, off);
        if (torus_splits) {
          EXPECT_THROW((void)torus_off.execute(grid, &torus_off_rng),
                       InfeasibleSchedule)
              << where;
        } else {
          const OpticalRunResult got = torus_off.execute(grid, &torus_off_rng);
          const OpticalRunResult want =
              TorusNetwork(torus, on).execute(grid, &torus_on_rng);
          EXPECT_EQ(got.total_rounds, want.total_rounds) << where;
          EXPECT_EQ(got.total_time.count(), want.total_time.count()) << where;
          EXPECT_EQ(got.max_wavelengths_used, want.max_wavelengths_used)
              << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RwaFuzz,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                         55u, 89u));

}  // namespace
}  // namespace wrht::optics
