#include "wrht/verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/optical/optical_backend.hpp"

namespace wrht::verify {

DifferentialReport check_differential(const coll::Schedule& schedule,
                                      const DifferentialOptions& options) {
  DifferentialReport report;
  const optics::OpticalConfig& cfg = options.config;

  RunReport run;
  try {
    if (options.backend != nullptr) {
      run = options.backend->execute(schedule);
    } else {
      const optics::RingBackend backend(schedule.num_nodes(), cfg);
      run = backend.execute(schedule);
    }
  } catch (const Error& e) {
    report.result.add("differential.infeasible",
                      std::string("simulator rejected the schedule: ") +
                          e.what());
    return report;
  }
  report.simulated_seconds = run.total_time.count();

  // Eq. (6) from the analysis module: per non-empty step, overhead a plus
  // the serialization of the step's widest transfer. An empty step has no
  // round to price, so it costs nothing and needs no round.
  core::TimeModel model;
  model.per_step_overhead =
      Seconds{cfg.mrr_reconfig_delay.count() + cfg.oeo_delay.count()};
  model.bytes_per_second = cfg.bytes_per_second();
  double analytical = 0.0;
  std::uint64_t priced_steps = 0;
  for (const coll::Step& step : schedule.steps()) {
    if (step.transfers.empty()) continue;
    ++priced_steps;
    std::size_t widest = 0;
    for (const coll::Transfer& t : step.transfers) {
      widest = std::max(widest, t.count);
    }
    const Bytes payload{static_cast<std::uint64_t>(widest) *
                        cfg.bytes_per_element};
    analytical += core::comm_time(1, payload, model).count();
  }
  report.analytical_seconds = analytical;
  report.single_round = run.rounds == priced_steps;

  const double diff = std::abs(report.simulated_seconds - analytical);
  report.rel_error = analytical > 0.0 ? diff / analytical : 0.0;

  if (report.single_round) {
    if (report.rel_error > options.rel_tolerance) {
      report.result.add(
          "differential.tolerance",
          "simulated " + std::to_string(report.simulated_seconds) +
              " s vs analytical " + std::to_string(analytical) + " s (" +
              std::to_string(report.rel_error * 100.0) +
              "% relative error, single-round)");
    }
  } else if (report.simulated_seconds + 1e-12 < analytical) {
    report.result.add(
        "differential.lower_bound",
        "multi-round run finished in " +
            std::to_string(report.simulated_seconds) +
            " s, beating the Eq. (6) lower bound " +
            std::to_string(analytical) + " s");
  }
  return report;
}

}  // namespace wrht::verify
