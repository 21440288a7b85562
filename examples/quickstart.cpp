// Quickstart: plan, build, verify and simulate one WRHT All-reduce.
//
//   $ ./quickstart [nodes] [wavelengths]
//
// Walks through the full public API: the planner picks the group size m,
// the builder emits the schedule, the verification oracle proves it is an
// All-reduce, and the optical ring simulator prices it against the Ring
// and Binary-Tree baselines.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/verify/oracle.hpp"

int main(int argc, char** argv) {
  using namespace wrht;
  const std::uint32_t nodes =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 64;
  const std::uint32_t wavelengths =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 8;
  const std::size_t elements = 1'000'000;  // 4 MB of float32 gradients

  std::printf("WRHT quickstart: %u nodes, %u wavelengths, %zu gradients\n\n",
              nodes, wavelengths, elements);

  // 1. Plan: choose the group size m that minimises communication steps.
  const core::WrhtPlan plan = core::plan_wrht(nodes, wavelengths);
  std::printf("planner: m = %u -> %u steps (%u reduce + %u broadcast%s)\n",
              plan.group_size, plan.steps.total_steps, plan.steps.reduce_steps,
              plan.steps.broadcast_steps,
              plan.steps.final_all_to_all ? ", all-to-all ending" : "");
  std::printf("         wavelengths required: %llu, Lemma-1 step bound: %llu\n",
              static_cast<unsigned long long>(plan.steps.wavelengths_required),
              static_cast<unsigned long long>(
                  core::wrht_min_steps(nodes, wavelengths)));

  // 2. Build the schedule and narrate it.
  const coll::Schedule sched = core::wrht_allreduce(
      nodes, elements, core::WrhtOptions{plan.group_size, wavelengths});
  std::printf("\nschedule '%s': %zu steps\n", sched.algorithm().c_str(),
              sched.num_steps());
  for (std::size_t i = 0; i < sched.num_steps(); ++i) {
    std::printf("  step %zu: %-22s %4zu transfers\n", i,
                sched.steps()[i].label.c_str(),
                sched.steps()[i].transfers.size());
  }

  // 3. Verify All-reduce semantics on real data.
  const coll::Schedule small = core::wrht_allreduce(
      nodes, 256, core::WrhtOptions{plan.group_size, wavelengths});
  const verify::OracleReport oracle = verify::check_allreduce(small);
  if (!oracle.ok()) throw Error(oracle.result.summary());
  std::printf("\noracle: every node holds the global sum (max error %.2e%s)\n",
              oracle.max_abs_error,
              oracle.provenance_checked ? ", exact by provenance" : "");

  // 4. Price it on the optical ring against the baselines. Every backend
  // result converts to the same RunReport shape, so the comparison table
  // is one loop.
  const optics::RingNetwork net(
      nodes, optics::OpticalConfig{}.with_wavelengths(wavelengths));

  const RunReport wrht = net.execute(sched).to_report();
  const RunReport ring =
      net.execute(coll::ring_allreduce(nodes, elements)).to_report();
  const RunReport bt =
      net.execute(coll::btree_allreduce(nodes, elements)).to_report();

  Table table({"Algorithm", "Steps", "Lambdas used", "Time"});
  const std::pair<const char*, const RunReport*> rows[] = {
      {"WRHT", &wrht}, {"Ring", &ring}, {"Binary tree", &bt}};
  for (const auto& [name, report] : rows) {
    table.add_row({name, std::to_string(report->steps),
                   std::to_string(report->max_wavelengths_used()),
                   to_string(report->total_time)});
  }
  std::printf("\n");
  std::cout << table;

  std::printf("\nWRHT is %.1fx faster than Ring and %.1fx faster than BT "
              "here.\n",
              ring.total_time / wrht.total_time,
              bt.total_time / wrht.total_time);
  return 0;
}
