#include "wrht/core/torus_wrht.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::core {
namespace {

using topo::Torus;

TEST(TorusWrht, CorrectOnSquareTorus) {
  const Torus torus(4, 4);
  const coll::Schedule s =
      torus_wrht_allreduce(torus, 8, WrhtOptions{2, 4});
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(TorusWrht, CorrectnessSweep) {
  for (std::uint32_t rows : {2u, 3u, 5u}) {
    for (std::uint32_t cols : {4u, 6u, 9u}) {
      for (std::uint32_t m : {2u, 3u}) {
        const Torus torus(rows, cols);
        const coll::Schedule s =
            torus_wrht_allreduce(torus, 6, WrhtOptions{m, 8});
        const verify::OracleReport oracle = verify::check_allreduce(s);
        EXPECT_TRUE(oracle.ok()) << rows << "x" << cols << " m=" << m << "\n"
                                 << oracle.result.summary();
      }
    }
  }
}

TEST(TorusWrht, StepCountMatchesPlan) {
  for (std::uint32_t rows = 2; rows <= 10; ++rows) {
    for (std::uint32_t cols = 2; cols <= 10; ++cols) {
      for (std::uint32_t m = 2; m <= 5; ++m) {
        for (const std::uint32_t w : {1u, 2u, 8u, 64u}) {
          for (const bool all_to_all : {true, false}) {
            const Torus torus(rows, cols);
            const WrhtOptions opt{m, w, all_to_all};
            EXPECT_EQ(torus_wrht_allreduce(torus, 4, opt).num_steps(),
                      torus_wrht_plan(torus, opt).total())
                << rows << "x" << cols << " m=" << m << " w=" << w
                << " all_to_all=" << all_to_all;
          }
        }
      }
    }
  }
}

TEST(TorusWrht, RowPhaseStaysInRows) {
  const Torus torus(3, 9);
  const coll::Schedule s = torus_wrht_allreduce(torus, 4, WrhtOptions{3, 8});
  const TorusWrhtPlan plan = torus_wrht_plan(torus, WrhtOptions{3, 8});
  for (std::uint32_t i = 0; i < plan.row_reduce_steps; ++i) {
    for (const coll::Transfer& t : s.steps()[i].transfers) {
      EXPECT_EQ(torus.row_of(t.src), torus.row_of(t.dst));
    }
  }
}

TEST(TorusWrht, ColumnPhaseStaysInRootColumn) {
  const Torus torus(3, 9);
  const WrhtOptions opt{3, 8};
  const coll::Schedule s = torus_wrht_allreduce(torus, 4, opt);
  const TorusWrhtPlan plan = torus_wrht_plan(torus, opt);
  std::uint32_t root_col = UINT32_MAX;
  for (std::uint32_t i = plan.row_reduce_steps;
       i < plan.row_reduce_steps + plan.column_steps; ++i) {
    for (const coll::Transfer& t : s.steps()[i].transfers) {
      EXPECT_EQ(torus.col_of(t.src), torus.col_of(t.dst));
      if (root_col == UINT32_MAX) root_col = torus.col_of(t.src);
      EXPECT_EQ(torus.col_of(t.src), root_col);
    }
  }
}

TEST(TorusWrht, FasterThanFlatRingInSteps) {
  // A 32x32 torus: WRHT rows+column beats a flat 1024-ring hierarchy of the
  // same group size in total steps? Not necessarily — but it must beat the
  // 2(N-1) Ring All-reduce dramatically.
  const Torus torus(32, 32);
  const TorusWrhtPlan plan = torus_wrht_plan(torus, WrhtOptions{9, 4});
  EXPECT_LT(plan.total(), 2u * (1024 - 1));
  EXPECT_LE(plan.total(), 20u);
}

TEST(TorusWrht, Validation) {
  const Torus torus(3, 3);
  EXPECT_THROW(torus_wrht_allreduce(torus, 4, WrhtOptions{1, 4}),
               InvalidArgument);
}

}  // namespace
}  // namespace wrht::core
