#include "wrht/collectives/halving_doubling.hpp"

#include <gtest/gtest.h>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(HalvingDoubling, StepCounts) {
  EXPECT_EQ(halving_doubling_steps(2), 2u);
  EXPECT_EQ(halving_doubling_steps(8), 6u);
  EXPECT_EQ(halving_doubling_steps(1024), 20u);
  EXPECT_EQ(halving_doubling_steps(6), 6u);  // 2*2 + fold + copy
  for (std::uint32_t n : {2u, 4u, 6u, 8u, 12u, 16u, 32u}) {
    EXPECT_EQ(halving_doubling_allreduce(n, 2 * n).num_steps(),
              halving_doubling_steps(n))
        << "n=" << n;
  }
}

TEST(HalvingDoubling, CorrectPowerOfTwo) {
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const Schedule s = halving_doubling_allreduce(n, 3 * n + 1);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(HalvingDoubling, CorrectNonPowerOfTwo) {
  for (std::uint32_t n : {3u, 5u, 6u, 7u, 11u, 20u, 33u}) {
    const Schedule s = halving_doubling_allreduce(n, 3 * n + 1);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(HalvingDoubling, TrafficIsBandwidthOptimal) {
  // Rabenseifner total traffic ~ 2d(1 - 1/N) per node; full-vector RD
  // would be d*log2(N) per node. Check the aggregate across all nodes.
  const std::uint32_t n = 16;
  const std::size_t elements = 1600;
  const Schedule s = halving_doubling_allreduce(n, elements);
  const std::uint64_t traffic = s.total_traffic_elements();
  const std::uint64_t optimal = 2ull * (n - 1) * (elements / n) * n;
  EXPECT_EQ(traffic, optimal);
  // Strictly less than the ring's equal total? Equal — both optimal.
  EXPECT_EQ(traffic, ring_allreduce(n, elements).total_traffic_elements());
}

TEST(HalvingDoubling, PayloadHalvesEachStep) {
  const Schedule s = halving_doubling_allreduce(8, 64);
  EXPECT_EQ(s.max_transfer_elements(0), 32u);
  EXPECT_EQ(s.max_transfer_elements(1), 16u);
  EXPECT_EQ(s.max_transfer_elements(2), 8u);
  EXPECT_EQ(s.max_transfer_elements(3), 8u);
  EXPECT_EQ(s.max_transfer_elements(4), 16u);
  EXPECT_EQ(s.max_transfer_elements(5), 32u);
}

TEST(HalvingDoubling, MuchCheaperThanFullVectorRdForLargePayloads) {
  const std::uint32_t n = 64;
  const std::size_t elements = 6400;
  const Schedule hd = halving_doubling_allreduce(n, elements);
  // Full-vector RD: log2(64) * d * n elements of traffic.
  const std::uint64_t rd_traffic = 6ull * elements * n;
  EXPECT_LT(hd.total_traffic_elements(), rd_traffic / 2);
}

TEST(HalvingDoubling, ExchangePairsAreSymmetric) {
  const Schedule s = halving_doubling_allreduce(8, 64);
  for (const auto& step : s.steps()) {
    for (const auto& t : step.transfers) {
      bool reverse = false;
      for (const auto& u : step.transfers) {
        if (u.src == t.dst && u.dst == t.src) reverse = true;
      }
      EXPECT_TRUE(reverse);
    }
  }
}

TEST(HalvingDoubling, Validation) {
  EXPECT_THROW(halving_doubling_allreduce(1, 8), InvalidArgument);
  EXPECT_THROW(halving_doubling_allreduce(8, 4), InvalidArgument);
  EXPECT_THROW(halving_doubling_steps(1), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
