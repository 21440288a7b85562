// Reproduces Figure 2 (the motivating example of §3.3): a 15-node optical
// ring with 2 available wavelengths. Binary-tree All-reduce needs 8 steps;
// WRHT needs 3 (one group fold into the reps 2/7/12, one all-to-all
// exchange among them, one group broadcast). Prints both schedules
// step by step with their wavelength usage and timing.
#include <cstdio>

#include "bench_common.hpp"
#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/timeline.hpp"
#include "wrht/verify/oracle.hpp"

int main() {
  using namespace wrht;
  constexpr std::uint32_t kNodes = 15;
  constexpr std::uint32_t kWavelengths = 2;
  constexpr std::uint32_t kGroup = 5;
  constexpr std::size_t kElements = 1'000'000;  // "data of size d"

  std::printf(
      "=== Figure 2: motivating example — %u nodes, %u wavelengths ===\n\n",
      kNodes, kWavelengths);

  // Both schedules are semantically verified All-reduces.
  for (const coll::Schedule& small :
       {coll::btree_allreduce(kNodes, 64),
        core::wrht_allreduce(kNodes, 64,
                             core::WrhtOptions{kGroup, kWavelengths})}) {
    const verify::OracleReport oracle = verify::check_allreduce(small);
    if (!oracle.ok()) throw Error(oracle.result.summary());
  }

  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"fig2", kElements}};
  spec.nodes = {kNodes};
  spec.wavelengths = {kWavelengths};
  spec.series = {exp::Series{.name = "btree", .algorithm = "btree"},
                 exp::Series{.name = "wrht", .algorithm = "wrht",
                             .group_size = kGroup}};
  const auto rows = bench::run_sweep(spec);
  const RunReport& bt_run = rows[0].report;
  const RunReport& wrht_run = rows[1].report;

  std::printf("Binary tree (paper Fig. 2a: 8 steps):\n");
  optics::print_timeline(bt_run, std::cout);
  std::printf("\nWRHT (paper Fig. 2b: 3 steps):\n");
  optics::print_timeline(wrht_run, std::cout);

  Table table({"Algorithm", "Steps", "Paper", "Lambdas used", "Time"});
  table.add_row({"Binary tree", std::to_string(bt_run.steps), "8",
                 std::to_string(bt_run.max_wavelengths_used()),
                 to_string(bt_run.total_time)});
  table.add_row({"WRHT (m=5)", std::to_string(wrht_run.steps), "3",
                 std::to_string(wrht_run.max_wavelengths_used()),
                 to_string(wrht_run.total_time)});
  std::printf("\n");
  std::cout << table;

  std::printf(
      "\nWRHT's representatives (nodes 2, 7, 12) collect both ring\n"
      "directions on the same 2 wavelengths, exchange among themselves,\n"
      "and broadcast back — %zu vs %zu steps, a %.1fx speedup.\n",
      wrht_run.steps, bt_run.steps,
      bt_run.total_time / wrht_run.total_time);

  CsvWriter csv(bench::csv_path("fig2_motivating"),
                {"algorithm", "steps", "time_s"});
  csv.add_row({"btree", std::to_string(bt_run.steps),
               Table::num(bt_run.total_time.count(), 6)});
  csv.add_row({"wrht", std::to_string(wrht_run.steps),
               Table::num(wrht_run.total_time.count(), 6)});
  std::printf("CSV written to %s\n",
              bench::csv_path("fig2_motivating").c_str());
  bench::write_metrics_csv("fig2_motivating");
  return 0;
}
