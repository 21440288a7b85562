#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::core {
namespace {

TEST(WrhtReduce, RootHoldsGlobalSum) {
  for (std::uint32_t n : {4u, 9u, 15u, 27u, 40u}) {
    const WrhtRootedSchedule r = wrht_reduce(n, 8, WrhtOptions{3, 8});
    const verify::OracleReport oracle =
        verify::check_reduce(r.schedule, r.root);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(WrhtReduce, StepCountIsHierarchyDepth) {
  const WrhtRootedSchedule r = wrht_reduce(1024, 4, WrhtOptions{129, 64});
  EXPECT_EQ(r.schedule.num_steps(), 2u);  // 1024 -> 8 -> 1
  const WrhtRootedSchedule r2 = wrht_reduce(64, 4, WrhtOptions{4, 64});
  EXPECT_EQ(r2.schedule.num_steps(), 3u);  // 64 -> 16 -> 4 -> 1
}

TEST(WrhtReduce, RootIsRecursiveMiddle) {
  const WrhtRootedSchedule r = wrht_reduce(15, 4, WrhtOptions{5, 2});
  // Groups [0..4][5..9][10..14] -> reps 2,7,12 -> middle rep 7.
  EXPECT_EQ(r.root, 7u);
}

TEST(WrhtBroadcast, EveryoneGetsRootVector) {
  for (std::uint32_t n : {4u, 9u, 15u, 27u, 40u}) {
    const WrhtRootedSchedule b = wrht_broadcast(n, 8, WrhtOptions{3, 8});
    const verify::OracleReport oracle =
        verify::check_broadcast(b.schedule, b.root);
    EXPECT_TRUE(oracle.ok()) << "n=" << n << "\n"
                             << oracle.result.summary();
  }
}

TEST(WrhtBroadcast, MirrorsReduce) {
  const WrhtOptions opt{5, 8};
  const WrhtRootedSchedule red = wrht_reduce(30, 4, opt);
  const WrhtRootedSchedule bc = wrht_broadcast(30, 4, opt);
  EXPECT_EQ(red.root, bc.root);
  ASSERT_EQ(red.schedule.num_steps(), bc.schedule.num_steps());
  const std::size_t steps = red.schedule.num_steps();
  for (std::size_t i = 0; i < steps; ++i) {
    const auto& r = red.schedule.steps()[i].transfers;
    const auto& b = bc.schedule.steps()[steps - 1 - i].transfers;
    ASSERT_EQ(r.size(), b.size());
    for (std::size_t t = 0; t < r.size(); ++t) {
      EXPECT_EQ(r[t].src, b[t].dst);
      EXPECT_EQ(r[t].dst, b[t].src);
    }
  }
}

TEST(WrhtPrimitives, ReduceThenBroadcastIsAllreduce) {
  const std::uint32_t n = 27;
  const std::size_t elements = 9;
  const WrhtOptions opt{4, 8};
  const WrhtRootedSchedule red = wrht_reduce(n, elements, opt);
  const WrhtRootedSchedule bc = wrht_broadcast(n, elements, opt);
  coll::Schedule composed("wrht_reduce+broadcast", n, elements);
  for (const auto& step : red.schedule.steps()) {
    composed.add_step(step.label).transfers = step.transfers;
  }
  for (const auto& step : bc.schedule.steps()) {
    composed.add_step(step.label).transfers = step.transfers;
  }
  const verify::OracleReport oracle = verify::check_allreduce(composed);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(WrhtPrimitives, Validation) {
  EXPECT_THROW(wrht_reduce(1, 4, WrhtOptions{2, 4}), InvalidArgument);
  EXPECT_THROW(wrht_reduce(8, 4, WrhtOptions{1, 4}), InvalidArgument);
  EXPECT_THROW(wrht_broadcast(1, 4, WrhtOptions{2, 4}), InvalidArgument);
}

}  // namespace
}  // namespace wrht::core
