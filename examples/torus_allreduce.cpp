// Torus extension (paper §6.1): runs WRHT on an n x n optical torus —
// per-row reduce, column All-reduce among the row roots, per-row broadcast
// — verifies the semantics, and compares the step count against WRHT and
// Ring All-reduce on a flat ring of the same total size.
//
//   $ ./torus_allreduce [rows] [cols]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/verify/oracle.hpp"

int main(int argc, char** argv) {
  using namespace wrht;
  const std::uint32_t rows =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
  const std::uint32_t cols =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
  constexpr std::uint32_t kWavelengths = 8;

  const topo::Torus torus(rows, cols);
  const core::WrhtOptions row_options{
      std::min(2 * kWavelengths + 1, cols), kWavelengths};

  std::printf("WRHT on a %ux%u optical torus (w = %u, row groups m = %u)\n\n",
              rows, cols, kWavelengths, row_options.group_size);

  // Build and verify.
  const coll::Schedule sched =
      core::torus_wrht_allreduce(torus, 64, row_options);
  const verify::OracleReport oracle = verify::check_allreduce(sched);
  if (!oracle.ok()) throw Error(oracle.result.summary());
  std::printf("verified: all %u nodes hold the global sum (max error "
              "%.2e)\n\n", torus.size(), oracle.max_abs_error);

  const core::TorusWrhtPlan plan = core::torus_wrht_plan(torus, row_options);
  std::printf("phases: %u row-reduce + %u column + %u row-broadcast steps\n\n",
              plan.row_reduce_steps, plan.column_steps,
              plan.row_broadcast_steps);

  for (std::size_t i = 0; i < sched.num_steps(); ++i) {
    std::printf("  step %2zu: %-26s %5zu transfers\n", i,
                sched.steps()[i].label.c_str(),
                sched.steps()[i].transfers.size());
  }

  // Step-count comparison against flat-ring alternatives of equal size.
  const std::uint32_t n = torus.size();
  const core::WrhtPlan flat = core::plan_wrht(n, kWavelengths);
  Table table({"Topology / algorithm", "Steps"});
  table.add_row({"Torus WRHT (this run)", std::to_string(plan.total())});
  table.add_row({"Flat-ring WRHT (m=" + std::to_string(flat.group_size) + ")",
                 std::to_string(flat.steps.total_steps)});
  table.add_row({"Flat-ring Ring All-reduce", std::to_string(2 * (n - 1))});
  std::printf("\n");
  std::cout << table;

  std::printf(
      "\nThe torus runs all rows concurrently, so its step count depends\n"
      "on the row/column lengths (sqrt(N)), not N — the §6.1 observation\n"
      "that the All-reduce process is considerably simpler on a torus.\n");
  return 0;
}
