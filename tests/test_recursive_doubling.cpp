#include "wrht/collectives/recursive_doubling.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(RecursiveDoubling, StepCountPowerOfTwo) {
  EXPECT_EQ(recursive_doubling_steps(2), 1u);
  EXPECT_EQ(recursive_doubling_steps(8), 3u);
  EXPECT_EQ(recursive_doubling_steps(1024), 10u);
  EXPECT_EQ(recursive_doubling_allreduce(16, 4).num_steps(),
            recursive_doubling_steps(16));
}

TEST(RecursiveDoubling, StepCountNonPowerOfTwo) {
  // floor(log2) + pre-fold + post-copy.
  EXPECT_EQ(recursive_doubling_steps(5), 4u);
  EXPECT_EQ(recursive_doubling_steps(6), 4u);
  EXPECT_EQ(recursive_doubling_steps(1000), 11u);
  EXPECT_EQ(recursive_doubling_allreduce(6, 4).num_steps(),
            recursive_doubling_steps(6));
}

TEST(RecursiveDoubling, CorrectPowerOfTwo) {
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    const Schedule s = recursive_doubling_allreduce(n, 6);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "rd failed for n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(RecursiveDoubling, CorrectNonPowerOfTwo) {
  for (std::uint32_t n : {3u, 5u, 6u, 7u, 9u, 12u, 21u}) {
    const Schedule s = recursive_doubling_allreduce(n, 6);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "rd failed for n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(RecursiveDoubling, ExchangeStepsAreSymmetric) {
  const Schedule s = recursive_doubling_allreduce(8, 4);
  for (const Step& step : s.steps()) {
    for (const Transfer& t : step.transfers) {
      bool has_reverse = false;
      for (const Transfer& u : step.transfers) {
        if (u.src == t.dst && u.dst == t.src) has_reverse = true;
      }
      EXPECT_TRUE(has_reverse) << t.src << "->" << t.dst;
    }
  }
}

TEST(RecursiveDoubling, EveryTransferMovesFullVector) {
  const std::size_t elements = 9;
  const Schedule s = recursive_doubling_allreduce(16, elements);
  for (const Step& step : s.steps()) {
    for (const Transfer& t : step.transfers) {
      EXPECT_EQ(t.count, elements);
    }
  }
}

TEST(RecursiveDoubling, PowerOfTwoHasNoFoldSteps) {
  const Schedule s = recursive_doubling_allreduce(8, 4);
  EXPECT_EQ(s.steps().front().label, "exchange 2^0");
  for (const Step& step : s.steps()) {
    // All 8 nodes participate in every step.
    EXPECT_EQ(step.transfers.size(), 8u);
  }
}

TEST(RecursiveDoubling, Validation) {
  EXPECT_THROW(recursive_doubling_allreduce(1, 4), InvalidArgument);
  EXPECT_THROW(recursive_doubling_steps(1), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
