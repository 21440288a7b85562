// net::Backend adapters for the electrical engines.
//
// FlowBackend wraps the flow-level fat-tree simulator (max-min fair
// sharing), PacketBackend the store-and-forward packet model; both keep
// their engine's native API intact. register_electrical_backends()
// publishes the "electrical-flow" and "electrical-packet" factories.
#pragma once

#include <cstdint>

#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/registry.hpp"

namespace wrht::elec {

class FlowBackend final : public net::Backend {
 public:
  /// `collect_utilization` makes every execute() sample per-link occupancy
  /// and fill the report's utilization fields.
  FlowBackend(std::uint32_t num_hosts, ElectricalConfig config,
              bool collect_utilization = false);

  /// The one line describe() and the backend registry both give.
  static constexpr const char* kDescription =
      "fat-tree flow-level simulator (max-min fair sharing, barrier steps)";

  [[nodiscard]] std::string name() const override {
    return "electrical-flow";
  }
  [[nodiscard]] std::string describe() const override { return kDescription; }
  [[nodiscard]] net::BackendCapabilities capabilities() const override;
  using net::Backend::execute;
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override;

  [[nodiscard]] const FatTreeNetwork& network() const { return network_; }

 private:
  FatTreeNetwork network_;
  bool collect_utilization_;
};

class PacketBackend final : public net::Backend {
 public:
  PacketBackend(std::uint32_t num_hosts, ElectricalConfig config,
                bool collect_utilization = false);

  /// The one line describe() and the backend registry both give.
  static constexpr const char* kDescription =
      "fat-tree store-and-forward packet simulator (validation-scale ground "
      "truth)";

  [[nodiscard]] std::string name() const override {
    return "electrical-packet";
  }
  [[nodiscard]] std::string describe() const override { return kDescription; }
  [[nodiscard]] net::BackendCapabilities capabilities() const override;
  using net::Backend::execute;
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override;

  [[nodiscard]] const PacketLevelNetwork& network() const { return network_; }

 private:
  PacketLevelNetwork network_;
  bool collect_utilization_;
};

/// Maps the portable config onto an ElectricalConfig (rate convention;
/// Table 2 defaults for everything else).
[[nodiscard]] ElectricalConfig electrical_config_from(
    const net::BackendConfig& config);

/// Registers "electrical-flow" and "electrical-packet" in `registry`.
void register_electrical_backends(net::BackendRegistry& registry);

}  // namespace wrht::elec
