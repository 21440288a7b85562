#include "wrht/electrical/electrical_backend.hpp"

#include "wrht/prof/prof.hpp"

namespace wrht::elec {

FlowBackend::FlowBackend(std::uint32_t num_hosts, ElectricalConfig config,
                         bool collect_utilization)
    : network_(num_hosts, config),
      collect_utilization_(collect_utilization) {}

std::string FlowBackend::describe() const {
  return "fat-tree flow-level simulator (max-min fair sharing, barrier "
         "steps)";
}

net::BackendCapabilities FlowBackend::capabilities() const {
  net::BackendCapabilities caps;  // no hints, no RWA, no wavelengths
  caps.reports_utilization = true;
  return caps;
}

RunReport FlowBackend::execute(const coll::Schedule& schedule,
                               const obs::Probe& probe) const {
  const prof::ScopedTimer timer("backend.electrical-flow.execute");
  const net::ScheduleScan scan = network_.scan(schedule);
  net::count_schedule(probe, scan);
  const net::ScopedUtilization util(probe, collect_utilization_);
  RunReport report =
      network_.execute_scanned(schedule, scan, util.probe()).to_report();
  util.finish(report);
  return report;
}

PacketBackend::PacketBackend(std::uint32_t num_hosts,
                             ElectricalConfig config,
                             bool collect_utilization)
    : network_(num_hosts, config),
      collect_utilization_(collect_utilization) {}

std::string PacketBackend::describe() const {
  return "fat-tree store-and-forward packet simulator (validation-scale "
         "ground truth)";
}

net::BackendCapabilities PacketBackend::capabilities() const {
  net::BackendCapabilities caps;
  caps.reports_utilization = true;
  return caps;
}

RunReport PacketBackend::execute(const coll::Schedule& schedule,
                                 const obs::Probe& probe) const {
  const prof::ScopedTimer timer("backend.electrical-packet.execute");
  net::count_schedule(probe, network_.scan(schedule));
  const net::ScopedUtilization util(probe, collect_utilization_);
  RunReport report =
      network_.execute_scanned(schedule, util.probe()).to_report();
  util.finish(report);
  return report;
}

ElectricalConfig electrical_config_from(const net::BackendConfig& config) {
  ElectricalConfig out;
  out.convention = config.convention;
  // The electrical fabric has no wavelengths; a lease slices its links in
  // proportion to the wavelength budget the config advertises.
  out.lease = config.lease;
  out.lease_fabric_width = config.lease.full() ? 0 : config.wavelengths;
  return out;
}

void register_electrical_backends(net::BackendRegistry& registry) {
  registry.register_backend(
      "electrical-flow",
      "fat-tree flow-level simulator (max-min fair sharing)",
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        return std::make_unique<FlowBackend>(config.num_nodes,
                                             electrical_config_from(config),
                                             config.collect_utilization);
      });
  registry.register_backend(
      "electrical-packet",
      "fat-tree packet-level simulator (store-and-forward ground truth)",
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        return std::make_unique<PacketBackend>(
            config.num_nodes, electrical_config_from(config),
            config.collect_utilization);
      });
}

}  // namespace wrht::elec
