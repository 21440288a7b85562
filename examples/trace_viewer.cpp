// Trace viewer: run one All-reduce on every simulator with full
// observability attached and write a Chrome trace-event file.
//
//   $ ./trace_viewer [nodes] [elements] [wavelengths] [out_prefix]
//
// Produces `<out_prefix>.trace.json` — open it at chrome://tracing or
// https://ui.perfetto.dev ("Open trace file"). Each simulator gets its own
// track: the optical ring shows one span per communication step with child
// spans per RWA round, the electrical fat tree one span per fair-sharing
// step, and the packet model one span per step. The engines also
// emit Perfetto counter tracks ("C" events) under each lane — wavelengths
// in use on the optical rings, active flows / max link load on the fat
// tree, packets per step on the packet model — so utilization dips line up
// visually with the spans that caused them. A counter summary and a
// per-step cost table (from the unified RunReport) print to stdout.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/optical/ring_network.hpp"

int main(int argc, char** argv) {
  using namespace wrht;
  const std::uint32_t nodes =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 64;
  const std::size_t elements =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 1'000'000;
  const std::uint32_t wavelengths =
      argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 8;
  const std::string prefix = argc > 4 ? argv[4] : "wrht";

  std::printf("Tracing %u nodes, %zu elements, %u wavelengths\n\n", nodes,
              elements, wavelengths);

  const std::uint32_t m = core::plan_wrht(nodes, wavelengths).group_size;
  const coll::Schedule wrht_sched =
      core::wrht_allreduce(nodes, elements, core::WrhtOptions{m, wavelengths});
  const coll::Schedule ring_sched = coll::ring_allreduce(nodes, elements);

  obs::ChromeTraceSink trace("wrht trace_viewer");
  obs::Counters counters;

  // Track 0: WRHT on the optical ring (step spans + RWA round spans).
  trace.set_track_name(0, "optical ring / WRHT");
  const optics::RingNetwork optical(
      nodes, optics::OpticalConfig{}.with_wavelengths(wavelengths));
  const RunReport wrht_report =
      optical.execute(wrht_sched, obs::Probe{&trace, &counters, 0})
          .to_report();

  // Track 1: Ring All-reduce on the same optical hardware.
  trace.set_track_name(1, "optical ring / Ring");
  const RunReport ring_report =
      optical.execute(ring_sched, obs::Probe{&trace, &counters, 1})
          .to_report();

  // Track 2: Ring on the electrical fat tree (fair-share flow model).
  trace.set_track_name(2, "electrical fat tree / Ring");
  const elec::FatTreeNetwork electrical(nodes, elec::ElectricalConfig{});
  const RunReport elec_report =
      electrical.execute(ring_sched, obs::Probe{&trace, &counters, 2})
          .to_report();

  // Track 3, at validation scale (256 elements): the packet-level ground
  // truth.
  trace.set_track_name(3, "electrical packet / Ring (256 elems)");
  const elec::PacketLevelNetwork packet(nodes, elec::ElectricalConfig{});
  const RunReport packet_report =
      packet.execute(coll::ring_allreduce(nodes, 256),
                     obs::Probe{&trace, &counters, 3})
          .to_report();

  const std::string trace_path = prefix + ".trace.json";
  trace.write_file(trace_path);

  Table table({"Backend", "Algorithm", "Steps", "Rounds", "Time"});
  table.add_row({wrht_report.backend, "wrht",
                 std::to_string(wrht_report.steps),
                 std::to_string(wrht_report.rounds),
                 to_string(wrht_report.total_time)});
  table.add_row({ring_report.backend, "ring",
                 std::to_string(ring_report.steps),
                 std::to_string(ring_report.rounds),
                 to_string(ring_report.total_time)});
  table.add_row({elec_report.backend, "ring",
                 std::to_string(elec_report.steps),
                 std::to_string(elec_report.rounds),
                 to_string(elec_report.total_time)});
  table.add_row({packet_report.backend, "ring (256)",
                 std::to_string(packet_report.steps),
                 std::to_string(packet_report.rounds),
                 to_string(packet_report.total_time)});
  std::cout << table << "\n";

  std::printf("counters:\n");
  for (const auto& [name, value] : counters.snapshot()) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }

  std::printf(
      "\n%zu spans + %zu counter samples -> %s\n"
      "(load in chrome://tracing or Perfetto; counter tracks render as\n"
      " per-lane line charts under the spans)\n",
      trace.size(), trace.counter_count(), trace_path.c_str());
  return 0;
}
