#include "wrht/verify/overlap.hpp"

#include <cmath>
#include <string>

#include "wrht/obs/analysis.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/verify/invariants.hpp"

namespace wrht::verify {

namespace {

std::string secs(Seconds v) { return std::to_string(v.count()) + "s"; }

}  // namespace

CheckResult check_overlap_consistency(const coll::Schedule& schedule,
                                      std::uint32_t ring_size,
                                      const OverlapOptions& options) {
  CheckResult result;

  optics::OpticalConfig base;
  base.wavelengths = options.wavelengths;
  base.validate_node_capacity = false;  // capacity is a separate checker

  optics::OpticalConfig overlapped_cfg = base;
  overlapped_cfg.reconfig_policy = net::ReconfigPolicy::kOverlapped;

  const optics::RingNetwork serial_net(ring_size, base);
  const optics::RingNetwork overlapped_net(ring_size, overlapped_cfg);

  const optics::OpticalRunResult serial = serial_net.execute(schedule);

  obs::OccupancySampler sampler;
  obs::Probe probe;
  probe.occupancy = &sampler;
  const optics::OpticalRunResult overlapped =
      overlapped_net.execute(schedule, probe);

  const double scale = std::max(serial.total_time.count(), 1e-30);
  const double tol = options.tolerance * scale;

  // Structure: the overlap re-pricing must leave the RWA untouched.
  if (overlapped.steps != serial.steps ||
      overlapped.total_rounds != serial.total_rounds ||
      overlapped.max_wavelengths_used != serial.max_wavelengths_used) {
    result.add("overlap.structure",
               "overlapped run changed steps/rounds/wavelengths: " +
                   std::to_string(overlapped.steps) + "/" +
                   std::to_string(overlapped.total_rounds) + "/" +
                   std::to_string(overlapped.max_wavelengths_used) +
                   " vs serial " + std::to_string(serial.steps) + "/" +
                   std::to_string(serial.total_rounds) + "/" +
                   std::to_string(serial.max_wavelengths_used));
  }

  // Monotonic per step and in total: hiding delay can only help.
  for (std::size_t s = 0; s < overlapped.step_costs.size() &&
                          s < serial.step_costs.size();
       ++s) {
    const Seconds o = overlapped.step_costs[s].duration;
    const Seconds e = serial.step_costs[s].duration;
    if (o.count() > e.count() + tol) {
      result.add("overlap.step_monotonic",
                 "step " + std::to_string(s) + " overlapped " + secs(o) +
                     " > serial " + secs(e));
    }
    if (overlapped.step_costs[s].rounds != serial.step_costs[s].rounds) {
      result.add("overlap.structure",
                 "step " + std::to_string(s) + " round count changed");
    }
  }
  if (overlapped.total_time.count() > serial.total_time.count() + tol) {
    result.add("overlap.monotonic",
               "overlapped total " + secs(overlapped.total_time) +
                   " > serial " + secs(serial.total_time));
  }

  // Identity: every hidden second is accounted for.
  const double identity_gap =
      std::abs(overlapped.total_time.count() +
               overlapped.overlap_hidden.count() -
               serial.total_time.count());
  if (identity_gap > tol) {
    result.add("overlap.hidden_identity",
               "total " + secs(overlapped.total_time) + " + hidden " +
                   secs(overlapped.overlap_hidden) + " != serial " +
                   secs(serial.total_time) + " (gap " +
                   std::to_string(identity_gap) + "s)");
  }

  // Accounting: the occupancy breakdown still tiles the overlapped run.
  RunReport report = overlapped.to_report();
  const obs::UtilizationAnalysis analysis =
      obs::analyze_utilization(report, sampler);
  if (std::abs(analysis.breakdown.total().count() -
               overlapped.total_time.count()) > tol) {
    result.add("overlap.accounting",
               "run breakdown total " + secs(analysis.breakdown.total()) +
                   " != total_time " + secs(overlapped.total_time));
  }
  for (std::size_t s = 0; s < analysis.step_breakdowns.size(); ++s) {
    const double gap =
        std::abs(analysis.step_breakdowns[s].total().count() -
                 overlapped.step_costs[s].duration.count());
    if (gap > tol) {
      result.add("overlap.accounting",
                 "step " + std::to_string(s) + " breakdown total != step "
                     "duration (gap " + std::to_string(gap) + "s)");
    }
  }

  // Conflict freedom: re-verify every RWA round independently, exactly as
  // for serial schedules — overlapping must not have relaxed it.
  InvariantOptions inv;
  inv.wavelengths = options.wavelengths;
  result.merge(check_conflict_freedom(schedule, ring_size, inv));

  return result;
}

}  // namespace wrht::verify
