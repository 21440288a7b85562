#include "wrht/collectives/ring_allreduce.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(RingAllreduce, StepCountFormula) {
  EXPECT_EQ(ring_allreduce_steps(2), 2u);
  EXPECT_EQ(ring_allreduce_steps(16), 30u);
  EXPECT_EQ(ring_allreduce_steps(1024), 2046u);  // Table 1
  EXPECT_EQ(ring_allreduce(8, 64).num_steps(), ring_allreduce_steps(8));
}

TEST(RingAllreduce, CorrectForSmallSizes) {
  for (std::uint32_t n : {2u, 3u, 4u, 5u, 8u, 13u}) {
    const Schedule s = ring_allreduce(n, 4 * n + 3);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "ring failed for n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(RingAllreduce, PerStepPayloadIsOneChunk) {
  const std::uint32_t n = 8;
  const std::size_t elements = 64;
  const Schedule s = ring_allreduce(n, elements);
  for (std::size_t step = 0; step < s.num_steps(); ++step) {
    EXPECT_EQ(s.max_transfer_elements(step), elements / n);
  }
}

TEST(RingAllreduce, EveryStepHasNTransfers) {
  const Schedule s = ring_allreduce(6, 36);
  for (const Step& step : s.steps()) {
    EXPECT_EQ(step.transfers.size(), 6u);
  }
}

TEST(RingAllreduce, AllTransfersGoToClockwiseNeighbour) {
  const std::uint32_t n = 7;
  const Schedule s = ring_allreduce(n, 14);
  for (const Step& step : s.steps()) {
    for (const Transfer& t : step.transfers) {
      EXPECT_EQ(t.dst, (t.src + 1) % n);
      ASSERT_TRUE(t.direction.has_value());
      EXPECT_EQ(*t.direction, topo::Direction::kClockwise);
    }
  }
}

TEST(RingAllreduce, TotalTrafficIsTwiceVectorPerNode) {
  // Reduce-scatter + all-gather each move (n-1)/n of the vector per node.
  const std::uint32_t n = 8;
  const std::size_t elements = 64;
  const Schedule s = ring_allreduce(n, elements);
  EXPECT_EQ(s.total_traffic_elements(), 2ull * (n - 1) * (elements / n) * n);
}

TEST(RingAllreduce, FirstHalfReducesSecondHalfCopies) {
  const Schedule s = ring_allreduce(4, 16);
  for (std::size_t i = 0; i < s.num_steps(); ++i) {
    const auto expected = i < s.num_steps() / 2 ? TransferKind::kReduce
                                                : TransferKind::kCopy;
    for (const Transfer& t : s.steps()[i].transfers) {
      EXPECT_EQ(t.kind, expected);
    }
  }
}

TEST(RingAllreduce, UnevenElementsStillCorrect) {
  // elements not divisible by n exercises the remainder chunking.
  const Schedule s = ring_allreduce(5, 23);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(RingAllreduce, Validation) {
  EXPECT_THROW(ring_allreduce(1, 10), InvalidArgument);
  EXPECT_THROW(ring_allreduce(8, 7), InvalidArgument);
  EXPECT_THROW(ring_allreduce_steps(0), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
