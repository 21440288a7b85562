// Packet-level electrical network simulation.
//
// A store-and-forward discrete-event model complementing the flow-level
// simulator: transfers are chopped into fixed-size packets (Table 2:
// 72 bytes) that queue FIFO at every directed link, serialize at the link
// rate, and pay the router processing delay at each router. Packet-level
// runs are the ground truth the fluid model approximates; the test suite
// cross-validates the two on small configurations.
#pragma once

#include <cstdint>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/topo/fat_tree.hpp"

namespace wrht::elec {

struct PacketRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t events_fired = 0;
  std::vector<Seconds> step_times;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class PacketBackend;

class PacketLevelNetwork {
 public:
  /// Uses the same topology and ElectricalConfig as FatTreeNetwork, so the
  /// two models are directly comparable.
  PacketLevelNetwork(std::uint32_t num_hosts, ElectricalConfig config);

  [[nodiscard]] const topo::FatTree& topology() const { return tree_; }

  /// Executes the schedule with per-step barriers. Packet counts grow with
  /// payload (bytes / packet_size); intended for validation-scale runs.
  [[nodiscard]] PacketRunResult execute(const coll::Schedule& schedule) const;

  /// Observed variant: one trace span per step plus "packet.*" counters.
  [[nodiscard]] PacketRunResult execute(const coll::Schedule& schedule,
                                        const obs::Probe& probe) const;

 private:
  /// The one read of `schedule` before a run: checks that it fits the
  /// fabric and is valid, and sums its traffic. Nothing is cached, so no
  /// step is keyed.
  [[nodiscard]] net::ScheduleScan scan(const coll::Schedule& schedule) const;

  /// The observed execute() of a schedule scan() has accepted.
  /// PacketBackend scans first and counts the run once this returns.
  [[nodiscard]] PacketRunResult execute_scanned(
      const coll::Schedule& schedule, const obs::Probe& probe) const;
  friend class PacketBackend;

  /// `step_start`/`step_index` place this step's link occupancy on the
  /// run timeline (the internal event clock restarts at 0 per step).
  /// `transfers` (when non-null) receives every transfer with its
  /// last-packet arrival time relative to the step start.
  [[nodiscard]] double simulate_step(const coll::Step& step,
                                     std::uint64_t& packets,
                                     std::uint64_t& events,
                                     const obs::Probe& probe,
                                     LinkOccupancy& links, double step_start,
                                     std::uint32_t step_index,
                                     net::RoundRouting* transfers) const;

  topo::FatTree tree_;
  ElectricalConfig config_;
};

}  // namespace wrht::elec
