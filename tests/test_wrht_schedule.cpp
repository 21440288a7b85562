#include "wrht/core/wrht_schedule.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::core {
namespace {

TEST(WrhtSchedule, MotivatingExampleHasThreeSteps) {
  // Paper Fig. 2(b): 15 nodes, 2 wavelengths -> 3 steps vs BT's 8.
  const coll::Schedule s = wrht_allreduce(15, 15, WrhtOptions{5, 2});
  EXPECT_EQ(s.num_steps(), 3u);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(WrhtSchedule, Table1ConfigHasThreeSteps) {
  const coll::Schedule s = wrht_allreduce(1024, 1024, WrhtOptions{129, 64});
  EXPECT_EQ(s.num_steps(), 3u);
}

TEST(WrhtSchedule, StepsAlwaysMatchPlan) {
  for (std::uint32_t n : {8u, 15u, 33u, 64u, 100u, 256u}) {
    for (std::uint32_t m : {2u, 3u, 5u, 9u, 17u}) {
      for (std::uint32_t w : {1u, 2u, 8u, 64u}) {
        const WrhtStepPlan plan = wrht_plan(n, m, w);
        const coll::Schedule s = wrht_allreduce(n, n, WrhtOptions{m, w});
        EXPECT_EQ(s.num_steps(), plan.total_steps)
            << "n=" << n << " m=" << m << " w=" << w;
        // Without the all-to-all the hierarchy collapses to one root.
        EXPECT_EQ(wrht_allreduce(n, n, WrhtOptions{m, w, false}).num_steps(),
                  wrht_steps_upper(n, m))
            << "n=" << n << " m=" << m << " w=" << w;
      }
    }
  }
}

TEST(WrhtSchedule, CorrectnessSweep) {
  for (std::uint32_t n : {4u, 7u, 15u, 16u, 30u, 33u, 64u}) {
    for (std::uint32_t m : {2u, 3u, 5u, 8u}) {
      for (std::uint32_t w : {1u, 4u, 64u}) {
        const coll::Schedule s = wrht_allreduce(n, 8, WrhtOptions{m, w});
        const verify::OracleReport oracle = verify::check_allreduce(s);
        EXPECT_TRUE(oracle.ok())
            << "n=" << n << " m=" << m << " w=" << w << "\n"
            << oracle.result.summary();
      }
    }
  }
}

TEST(WrhtSchedule, EveryTransferMovesFullVector) {
  const std::size_t elements = 11;
  const coll::Schedule s = wrht_allreduce(30, elements, WrhtOptions{5, 4});
  for (const coll::Step& step : s.steps()) {
    for (const coll::Transfer& t : step.transfers) {
      EXPECT_EQ(t.offset, 0u);
      EXPECT_EQ(t.count, elements);
    }
  }
}

TEST(WrhtSchedule, GroupTransfersCarryDirectionHints) {
  const coll::Schedule s = wrht_allreduce(15, 15, WrhtOptions{5, 2});
  // Step 0 is the grouping step: all transfers hinted toward the rep.
  for (const coll::Transfer& t : s.steps()[0].transfers) {
    ASSERT_TRUE(t.direction.has_value());
    const auto expect = t.src < t.dst ? topo::Direction::kClockwise
                                      : topo::Direction::kCounterClockwise;
    EXPECT_EQ(*t.direction, expect);
  }
  // The all-to-all step routes shortest-path with antipodal ties split
  // between the fibers.
  const topo::Ring ring(15);
  for (const coll::Transfer& t : s.steps()[1].transfers) {
    ASSERT_TRUE(t.direction.has_value());
    const std::uint32_t cw = ring.cw_distance(t.src, t.dst);
    const std::uint32_t ccw = ring.ccw_distance(t.src, t.dst);
    if (cw < ccw) {
      EXPECT_EQ(*t.direction, topo::Direction::kClockwise);
    } else if (ccw < cw) {
      EXPECT_EQ(*t.direction, topo::Direction::kCounterClockwise);
    }
  }
}

TEST(WrhtSchedule, BroadcastMirrorsReduce) {
  const coll::Schedule s = wrht_allreduce(30, 8, WrhtOptions{5, 1});
  // Without all-to-all (w=1), steps = 2L; broadcast step i mirrors reduce
  // step 2L-1-i with src/dst swapped.
  const std::size_t n_steps = s.num_steps();
  for (std::size_t i = 0; i < n_steps / 2; ++i) {
    const auto& reduce = s.steps()[i].transfers;
    const auto& bcast = s.steps()[n_steps - 1 - i].transfers;
    ASSERT_EQ(reduce.size(), bcast.size());
    for (std::size_t t = 0; t < reduce.size(); ++t) {
      EXPECT_EQ(reduce[t].src, bcast[t].dst);
      EXPECT_EQ(reduce[t].dst, bcast[t].src);
      EXPECT_EQ(reduce[t].kind, coll::TransferKind::kReduce);
      EXPECT_EQ(bcast[t].kind, coll::TransferKind::kCopy);
    }
  }
}

TEST(WrhtSchedule, AllToAllStepIsCompleteExchange) {
  const coll::Schedule s = wrht_allreduce(15, 15, WrhtOptions{5, 2});
  const auto& a2a = s.steps()[1].transfers;
  EXPECT_EQ(a2a.size(), 6u);  // 3 reps, ordered pairs
  for (const coll::Transfer& t : a2a) {
    EXPECT_TRUE(t.src == 2 || t.src == 7 || t.src == 12);
    EXPECT_TRUE(t.dst == 2 || t.dst == 7 || t.dst == 12);
    EXPECT_EQ(t.kind, coll::TransferKind::kReduce);
  }
}

TEST(WrhtSchedule, ExchangeDirectionsTakeShortestArcsAndAlternateTies) {
  using topo::Direction;
  // Even ring: the antipodal pairs (i, i + 4) tie. Both transfers of a
  // tied pair share one direction, and successive ties alternate it.
  const topo::Ring even(8);
  bool tie_clockwise = true;
  std::vector<Direction> ties;
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = a + 1; b < 8; ++b) {
      const auto [forward, backward] =
          exchange_directions(even, a, b, tie_clockwise);
      if (b - a == 4) {
        EXPECT_EQ(forward, backward) << a << "<->" << b;
        ties.push_back(forward);
      } else {
        EXPECT_EQ(forward, b - a < 4 ? Direction::kClockwise
                                     : Direction::kCounterClockwise)
            << a << "->" << b;
        EXPECT_EQ(backward, topo::opposite(forward)) << b << "->" << a;
      }
    }
  }
  EXPECT_EQ(ties, (std::vector<Direction>{
                      Direction::kClockwise, Direction::kCounterClockwise,
                      Direction::kClockwise, Direction::kCounterClockwise}));
  EXPECT_TRUE(tie_clockwise);

  // Odd ring: no pair ties, so the tie state never moves.
  const topo::Ring odd(7);
  tie_clockwise = false;
  for (NodeId a = 0; a < 7; ++a) {
    for (NodeId b = a + 1; b < 7; ++b) {
      const auto [forward, backward] =
          exchange_directions(odd, a, b, tie_clockwise);
      EXPECT_EQ(forward, b - a < 4 ? Direction::kClockwise
                                   : Direction::kCounterClockwise)
          << a << "->" << b;
      EXPECT_EQ(backward, topo::opposite(forward)) << b << "->" << a;
    }
  }
  EXPECT_FALSE(tie_clockwise);
}

TEST(WrhtSchedule, Validation) {
  EXPECT_THROW(wrht_allreduce(8, 8, WrhtOptions{1, 4}), InvalidArgument);
  EXPECT_THROW(wrht_allreduce(1, 8, WrhtOptions{2, 4}), InvalidArgument);
}

}  // namespace
}  // namespace wrht::core
