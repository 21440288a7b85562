#include "wrht/core/mesh_wrht.hpp"

#include <gtest/gtest.h>

#include "wrht/common/error.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::core {
namespace {

using topo::Mesh;

TEST(MeshWrht, CorrectWithLineAllToAll) {
  const Mesh mesh(4, 8);  // line all-to-all over 4 roots needs 4 lambdas
  const coll::Schedule s = mesh_wrht_allreduce(mesh, 8, WrhtOptions{3, 8});
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(MeshWrht, CorrectWithRootedColumnFallback) {
  // 8 rows: line all-to-all needs 16 lambdas > 2 -> rooted fallback.
  const Mesh mesh(8, 6);
  const coll::Schedule s = mesh_wrht_allreduce(mesh, 8, WrhtOptions{3, 2});
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(MeshWrht, AllToAllOffReducesTheColumnByLevels) {
  // 4 roots fit one line all-to-all at w = 8; with all-to-all off the
  // root column reduces and broadcasts by levels instead.
  const Mesh mesh(4, 8);
  const WrhtOptions opt{3, 8, /*allow_all_to_all=*/false};
  const coll::Schedule s = mesh_wrht_allreduce(mesh, 8, opt);
  for (const coll::Step& step : s.steps()) {
    EXPECT_NE(step.label, "column line all-to-all");
  }
  const MeshWrhtPlan plan = mesh_wrht_plan(mesh, opt);
  EXPECT_FALSE(plan.column_all_to_all);
  EXPECT_EQ(plan.total(), s.num_steps());
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(MeshWrht, CorrectnessSweep) {
  for (std::uint32_t rows : {2u, 3u, 5u, 8u}) {
    for (std::uint32_t cols : {4u, 7u, 9u}) {
      for (std::uint32_t w : {2u, 8u, 64u}) {
        const Mesh mesh(rows, cols);
        const coll::Schedule s =
            mesh_wrht_allreduce(mesh, 6, WrhtOptions{3, w});
        const verify::OracleReport oracle = verify::check_allreduce(s);
        EXPECT_TRUE(oracle.ok()) << rows << "x" << cols << " w=" << w << "\n"
                                 << oracle.result.summary();
      }
    }
  }
}

TEST(MeshWrht, PlanMatchesSchedule) {
  for (std::uint32_t rows = 2; rows <= 10; ++rows) {
    for (std::uint32_t cols = 2; cols <= 10; ++cols) {
      for (std::uint32_t m = 2; m <= 5; ++m) {
        for (const std::uint32_t w : {1u, 2u, 8u, 64u}) {
          for (const bool all_to_all : {true, false}) {
            const Mesh mesh(rows, cols);
            const WrhtOptions opt{m, w, all_to_all};
            EXPECT_EQ(mesh_wrht_allreduce(mesh, 4, opt).num_steps(),
                      mesh_wrht_plan(mesh, opt).total())
                << rows << "x" << cols << " m=" << m << " w=" << w
                << " all_to_all=" << all_to_all;
          }
        }
      }
    }
  }
}

TEST(MeshWrht, PlanUsesLineBoundForColumnCutoff) {
  // 6 rows: line all-to-all needs floor(6/2)*ceil(6/2) = 9 lambdas.
  const Mesh mesh(6, 9);
  EXPECT_TRUE(mesh_wrht_plan(mesh, WrhtOptions{3, 9}).column_all_to_all);
  EXPECT_FALSE(mesh_wrht_plan(mesh, WrhtOptions{3, 8}).column_all_to_all);
  // The ring bound ceil(36/8) = 5 would wrongly admit w = 8.
  EXPECT_LE(all_to_all_wavelengths(6), 8u);
}

TEST(MeshWrht, RowPhaseStaysInRows) {
  const Mesh mesh(3, 9);
  const WrhtOptions opt{3, 8};
  const coll::Schedule s = mesh_wrht_allreduce(mesh, 4, opt);
  const MeshWrhtPlan plan = mesh_wrht_plan(mesh, opt);
  for (std::uint32_t i = 0; i < plan.row_reduce_steps; ++i) {
    for (const auto& t : s.steps()[i].transfers) {
      EXPECT_EQ(mesh.row_of(t.src), mesh.row_of(t.dst));
    }
  }
}

TEST(MeshWrht, ColumnTransfersNeverWrap) {
  // Mesh lines have no wraparound: every column transfer stays between the
  // two row indices (trivially true for point-to-point transfers, but the
  // schedule must only ever pair nodes of the root column).
  const Mesh mesh(5, 9);
  const WrhtOptions opt{3, 64};
  const coll::Schedule s = mesh_wrht_allreduce(mesh, 4, opt);
  const MeshWrhtPlan plan = mesh_wrht_plan(mesh, opt);
  std::uint32_t root_col = UINT32_MAX;
  for (std::uint32_t i = plan.row_reduce_steps;
       i < plan.row_reduce_steps + plan.column_steps; ++i) {
    for (const auto& t : s.steps()[i].transfers) {
      EXPECT_EQ(mesh.col_of(t.src), mesh.col_of(t.dst));
      if (root_col == UINT32_MAX) root_col = mesh.col_of(t.src);
      EXPECT_EQ(mesh.col_of(t.src), root_col);
    }
  }
}

TEST(MeshWrht, Validation) {
  const Mesh mesh(3, 3);
  EXPECT_THROW(mesh_wrht_allreduce(mesh, 4, WrhtOptions{1, 4}),
               InvalidArgument);
}

}  // namespace
}  // namespace wrht::core
