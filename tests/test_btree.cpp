#include "wrht/collectives/btree_allreduce.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(CeilLog2, Values) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
  EXPECT_THROW(ceil_log2(0), InvalidArgument);
}

TEST(BtreeAllreduce, StepCountFormula) {
  EXPECT_EQ(btree_allreduce_steps(1024), 20u);  // Table 1
  EXPECT_EQ(btree_allreduce_steps(15), 8u);     // motivating example, Fig 2a
  EXPECT_EQ(btree_allreduce_steps(2), 2u);
  for (std::uint32_t n : {2u, 3u, 7u, 15u, 16u, 33u}) {
    EXPECT_EQ(btree_allreduce(n, 8).num_steps(), btree_allreduce_steps(n));
  }
}

TEST(BtreeAllreduce, CorrectForSmallSizes) {
  for (std::uint32_t n : {2u, 3u, 4u, 7u, 8u, 15u, 16u, 21u}) {
    const Schedule s = btree_allreduce(n, 5);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << "btree failed for n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(BtreeAllreduce, EveryTransferMovesFullVector) {
  const std::size_t elements = 17;
  const Schedule s = btree_allreduce(8, elements);
  for (const Step& step : s.steps()) {
    for (const Transfer& t : step.transfers) {
      EXPECT_EQ(t.offset, 0u);
      EXPECT_EQ(t.count, elements);
    }
  }
}

TEST(BtreeAllreduce, ReduceFoldsTowardNodeZero) {
  const Schedule s = btree_allreduce(8, 4);
  // Last reduce step: node 4 -> node 0.
  const Step& last_reduce = s.steps()[2];
  ASSERT_EQ(last_reduce.transfers.size(), 1u);
  EXPECT_EQ(last_reduce.transfers[0].src, 4u);
  EXPECT_EQ(last_reduce.transfers[0].dst, 0u);
  EXPECT_EQ(last_reduce.transfers[0].kind, TransferKind::kReduce);
}

TEST(BtreeAllreduce, BroadcastMirrorsReduce) {
  const Schedule s = btree_allreduce(16, 4);
  const std::size_t half = s.num_steps() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const Step& reduce = s.steps()[i];
    const Step& bcast = s.steps()[s.num_steps() - 1 - i];
    ASSERT_EQ(reduce.transfers.size(), bcast.transfers.size());
    for (std::size_t t = 0; t < reduce.transfers.size(); ++t) {
      EXPECT_EQ(reduce.transfers[t].src, bcast.transfers[t].dst);
      EXPECT_EQ(reduce.transfers[t].dst, bcast.transfers[t].src);
      EXPECT_EQ(bcast.transfers[t].kind, TransferKind::kCopy);
    }
  }
}

TEST(BtreeAllreduce, IncompleteTreeSkipsMissingPartners) {
  // n=5: reduce level 1 pairs (1->0),(3->2); level 2 (2->0); level 3 (4->0).
  const Schedule s = btree_allreduce(5, 4);
  EXPECT_EQ(s.steps()[0].transfers.size(), 2u);
  EXPECT_EQ(s.steps()[1].transfers.size(), 1u);
  EXPECT_EQ(s.steps()[2].transfers.size(), 1u);
  EXPECT_EQ(s.steps()[2].transfers[0].src, 4u);
}

TEST(BtreeAllreduce, Validation) {
  EXPECT_THROW(btree_allreduce(1, 10), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
