#include "wrht/electrical/electrical_backend.hpp"

#include "wrht/prof/prof.hpp"

namespace wrht::elec {

FlowBackend::FlowBackend(std::uint32_t num_hosts, ElectricalConfig config,
                         bool collect_utilization)
    : network_(num_hosts, config),
      collect_utilization_(collect_utilization) {}

net::BackendCapabilities FlowBackend::capabilities() const {
  net::BackendCapabilities caps;  // no wavelengths
  caps.reports_utilization = true;
  return caps;
}

RunReport FlowBackend::execute(const coll::Schedule& schedule,
                               const obs::Probe& probe) const {
  const prof::ScopedTimer timer("backend.electrical-flow.execute");
  const net::ScheduleScan scan = network_.scan(schedule);
  const net::ScopedUtilization util(probe, collect_utilization_);
  RunReport report =
      network_.execute_scanned(schedule, scan, util.probe()).to_report();
  net::count_schedule(probe, scan);
  util.finish(report);
  return report;
}

PacketBackend::PacketBackend(std::uint32_t num_hosts,
                             ElectricalConfig config,
                             bool collect_utilization)
    : network_(num_hosts, config),
      collect_utilization_(collect_utilization) {}

net::BackendCapabilities PacketBackend::capabilities() const {
  net::BackendCapabilities caps;
  caps.reports_utilization = true;
  return caps;
}

RunReport PacketBackend::execute(const coll::Schedule& schedule,
                                 const obs::Probe& probe) const {
  const prof::ScopedTimer timer("backend.electrical-packet.execute");
  const net::ScheduleScan scan = network_.scan(schedule);
  const net::ScopedUtilization util(probe, collect_utilization_);
  RunReport report =
      network_.execute_scanned(schedule, util.probe()).to_report();
  net::count_schedule(probe, scan);
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
      "electrical-flow", FlowBackend::kDescription,
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        return std::make_unique<FlowBackend>(config.num_nodes,
                                             electrical_config_from(config),
                                             config.collect_utilization);
      });
  registry.register_backend(
      "electrical-packet", PacketBackend::kDescription,
      [](const net::BackendConfig& config) -> std::unique_ptr<net::Backend> {
        return std::make_unique<PacketBackend>(
            config.num_nodes, electrical_config_from(config),
            config.collect_utilization);
      });
}

}  // namespace wrht::elec
