#include "wrht/collectives/hring_allreduce.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(HRing, PaperFormulaTable1) {
  // Table 1: N=1024, m=5, w=64 -> 417 steps.
  EXPECT_EQ(hring_steps(1024, 5, 64), 417u);
  // Wavelength-starved branch (m > w).
  EXPECT_EQ(hring_steps(1024, 5, 4), 424u);
}

TEST(HRing, BuilderMatchesPaperFormulaWhenDivisible) {
  // With m | N and m <= w the builder's 2(m-1) + 2(N/m - 1) + 1 equals
  // the paper's 2(m^2+N)/m - 3.
  for (std::uint32_t m : {2u, 4u, 8u, 16u}) {
    const std::uint32_t n = 64;
    EXPECT_EQ(hring_builder_steps(n, m), hring_steps(n, m, 64))
        << "m=" << m;
    EXPECT_EQ(hring_allreduce(n, 2 * n, m).num_steps(),
              hring_builder_steps(n, m));
  }
}

TEST(HRing, BuilderMatchesFormulaForPaperConfig) {
  // N=1024, m=5 has a 4-node trailing group; builder still lands on 417.
  EXPECT_EQ(hring_builder_steps(1024, 5), 417u);
}

TEST(HRing, CorrectForDivisibleGroups) {
  const Schedule s = hring_allreduce(12, 24, 4);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(HRing, CorrectForRaggedGroups) {
  for (std::uint32_t n : {10u, 11u, 13u, 17u}) {
    const Schedule s = hring_allreduce(n, 2 * n + 1, 4);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "hring failed for n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(HRing, CorrectWithGroupOfOne) {
  // n=9, m=4 -> groups 4,4,1.
  const Schedule s = hring_allreduce(9, 18, 4);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(HRing, SingleGroupDegeneratesToRing) {
  // m >= N: only the intra stage, 2(N-1) steps (exactly Ring All-reduce).
  const Schedule s = hring_allreduce(6, 12, 8);
  EXPECT_EQ(s.num_steps(), 10u);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(HRing, BroadcastIsFinalSingleStep) {
  const Schedule s = hring_allreduce(12, 24, 4);
  const Step& last = s.steps().back();
  EXPECT_EQ(last.label, "leader broadcast");
  // 3 groups x 3 non-leader members.
  EXPECT_EQ(last.transfers.size(), 9u);
  for (const Transfer& t : last.transfers) {
    EXPECT_EQ(t.kind, TransferKind::kCopy);
    EXPECT_EQ(t.count, 24u);
  }
}

TEST(HRing, LeadersAreGroupMiddles) {
  const Schedule s = hring_allreduce(12, 24, 4);
  // Groups [0..3],[4..7],[8..11] -> leaders 2, 6, 10 appear as broadcast
  // sources.
  const Step& last = s.steps().back();
  for (const Transfer& t : last.transfers) {
    EXPECT_TRUE(t.src == 2 || t.src == 6 || t.src == 10) << t.src;
  }
}

TEST(HRing, IntraPayloadIsGroupChunk) {
  const Schedule s = hring_allreduce(12, 24, 4);
  // Intra steps move elements/m = 6-element chunks.
  EXPECT_EQ(s.max_transfer_elements(0), 6u);
  // Inter steps (after 2(m-1) = 6 intra steps) move elements/(N/m) = 8.
  EXPECT_EQ(s.max_transfer_elements(6), 8u);
}

TEST(HRing, Validation) {
  EXPECT_THROW(hring_allreduce(1, 10, 2), InvalidArgument);
  EXPECT_THROW(hring_allreduce(8, 16, 1), InvalidArgument);
  EXPECT_THROW(hring_allreduce(8, 4, 2), InvalidArgument);
  EXPECT_THROW(hring_steps(8, 2, 0), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
