// net::Backend adapters for the optical engines.
//
// RingBackend and TorusBackend wrap one RingNetwork / TorusNetwork
// instance behind the polymorphic Backend seam; the engines' native APIs
// stay intact for callers that need explicit Rng control.
// register_optical_backends() publishes the "optical-ring" and
// "optical-torus" factories.
#pragma once

#include <cstdint>

#include "wrht/net/backend.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::optics {

class RingBackend final : public net::Backend {
 public:
  /// `rng_seed` feeds random-fit RWA only; first-fit runs never draw.
  /// `collect_utilization` makes every execute() sample occupancy into a
  /// backend-owned sampler and fill the report's utilization fields.
  RingBackend(std::uint32_t num_nodes, OpticalConfig config,
              std::uint64_t rng_seed = 2023,
              bool collect_utilization = false);

  /// The one line describe() and the backend registry both give.
  static constexpr const char* kDescription =
      "WDM double-ring discrete-event simulator (RWA + multi-round "
      "splitting, Eq. 6 pricing)";

  [[nodiscard]] std::string name() const override { return "optical-ring"; }
  [[nodiscard]] std::string describe() const override { return kDescription; }
  [[nodiscard]] net::BackendCapabilities capabilities() const override;
  using net::Backend::execute;
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override;

  [[nodiscard]] const RingNetwork& network() const { return network_; }

 private:
  RingNetwork network_;
  std::uint64_t rng_seed_;
  bool collect_utilization_;
};

class TorusBackend final : public net::Backend {
 public:
  TorusBackend(const topo::Torus& torus, OpticalConfig config,
               std::uint64_t rng_seed = 2023,
               bool collect_utilization = false);

  /// The one line describe() and the backend registry both give.
  static constexpr const char* kDescription =
      "optical torus: every row/column is a WDM ring; steps last as long as "
      "their slowest ring";

  [[nodiscard]] std::string name() const override { return "optical-torus"; }
  [[nodiscard]] std::string describe() const override { return kDescription; }
  [[nodiscard]] net::BackendCapabilities capabilities() const override;
  using net::Backend::execute;
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule,
                                  const obs::Probe& probe) const override;

  [[nodiscard]] const TorusNetwork& network() const { return network_; }

 private:
  TorusNetwork network_;
  std::uint64_t rng_seed_;
  bool collect_utilization_;
};

/// Maps the portable config onto an OpticalConfig (wavelengths, rate
/// convention, node-capacity validation, reconfiguration accounting,
/// random-fit policy); everything else keeps Table 2 defaults.
[[nodiscard]] OpticalConfig optical_config_from(
    const net::BackendConfig& config);

/// Registers "optical-ring" and "optical-torus" in `registry`.
void register_optical_backends(net::BackendRegistry& registry);

}  // namespace wrht::optics
