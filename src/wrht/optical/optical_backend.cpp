#include "wrht/optical/optical_backend.hpp"

#include <utility>

#include "wrht/common/error.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht::optics {

RingBackend::RingBackend(std::uint32_t num_nodes, OpticalConfig config,
                         std::uint64_t rng_seed, bool collect_utilization)
    : network_(num_nodes, config),
      rng_seed_(rng_seed),
      collect_utilization_(collect_utilization) {}

std::string RingBackend::describe() const {
  return "WDM double-ring discrete-event simulator (RWA + multi-round "
         "splitting, Eq. 6 pricing)";
}

net::BackendCapabilities RingBackend::capabilities() const {
  net::BackendCapabilities caps;
  caps.supports_direction_hints = true;
  caps.validates_rwa = true;
  caps.reports_wavelengths = true;
  caps.reports_utilization = true;
  caps.supports_reconfig_overlap = true;
  return caps;
}

RunReport RingBackend::execute(const coll::Schedule& schedule,
                               const obs::Probe& probe) const {
  return execute_at(schedule, probe, Seconds(0.0));
}

RunReport RingBackend::execute_at(const coll::Schedule& schedule,
                                  const obs::Probe& probe,
                                  Seconds start) const {
  const prof::ScopedTimer timer("backend.optical-ring.execute");
  const net::ScheduleScan scan = network_.scan(schedule);
  net::count_schedule(probe, scan);
  const net::ScopedUtilization util(probe, collect_utilization_);
  OpticalRunResult run;
  if (network_.config().rwa_policy == RwaPolicy::kRandomFit) {
    Rng rng(rng_seed_);
    run = network_.execute_scanned(schedule, scan, util.probe(), &rng, start);
  } else {
    run = network_.execute_scanned(schedule, scan, util.probe(), nullptr,
                                   start);
  }
  RunReport report = run.to_report();
  util.finish(report);
  return report;
}

TorusBackend::TorusBackend(const topo::Torus& torus, OpticalConfig config,
                           std::uint64_t rng_seed, bool collect_utilization)
    : network_(torus, config),
      rng_seed_(rng_seed),
      collect_utilization_(collect_utilization) {}

std::string TorusBackend::describe() const {
  return "optical torus: every row/column is a WDM ring; steps last as "
         "long as their slowest ring";
}

net::BackendCapabilities TorusBackend::capabilities() const {
  net::BackendCapabilities caps;
  caps.supports_direction_hints = false;  // hints are flat-ring specific
  caps.validates_rwa = true;
  caps.reports_wavelengths = true;
  caps.dimension_local_transfers_only = true;
  caps.reports_utilization = true;
  caps.supports_reconfig_overlap = true;
  return caps;
}

RunReport TorusBackend::execute(const coll::Schedule& schedule,
                                const obs::Probe& probe) const {
  const prof::ScopedTimer timer("backend.optical-torus.execute");
  net::count_schedule(probe, network_.scan(schedule));
  const net::ScopedUtilization util(probe, collect_utilization_);
  OpticalRunResult run;
  if (network_.config().rwa_policy == RwaPolicy::kRandomFit) {
    Rng rng(rng_seed_);
    run = network_.execute_scanned(schedule, util.probe(), &rng);
  } else {
    run = network_.execute_scanned(schedule, util.probe(), nullptr);
  }
  RunReport report = run.to_report();
  report.backend = name();
  util.finish(report);
  return report;
}

OpticalConfig optical_config_from(const net::BackendConfig& config) {
  OpticalConfig out;
  out.wavelengths = config.wavelengths;
  out.convention = config.convention;
  out.validate_node_capacity = config.validate_node_capacity;
  out.reconfig_policy = config.reconfig_policy;
  out.rwa_policy =
      config.random_fit_rwa ? RwaPolicy::kRandomFit : RwaPolicy::kFirstFit;
  out.rwa_threads = config.rwa_threads;
  out.lease = config.lease;
  return out;
}

void register_optical_backends(net::BackendRegistry& registry) {
  registry.register_backend(
      "optical-ring",
      "WDM double-ring simulator (RWA, multi-round splitting, Eq. 6)",
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        return std::make_unique<RingBackend>(
            config.num_nodes, optical_config_from(config), config.rng_seed,
            config.collect_utilization);
      });
  registry.register_backend(
      "optical-torus",
      "optical torus of WDM row/column rings (dimension-local transfers)",
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        std::uint32_t rows = config.torus_rows;
        std::uint32_t cols = config.torus_cols;
        if (rows == 0 && cols == 0) {
          std::tie(rows, cols) = topo::near_square(config.num_nodes);
        }
        require(rows >= 1 && cols >= 1 &&
                    static_cast<std::uint64_t>(rows) * cols ==
                        config.num_nodes,
                "optical-torus factory: torus_rows * torus_cols must equal "
                "num_nodes");
        return std::make_unique<TorusBackend>(
            topo::Torus(rows, cols), optical_config_from(config),
            config.rng_seed, config.collect_utilization);
      });
}

}  // namespace wrht::optics
