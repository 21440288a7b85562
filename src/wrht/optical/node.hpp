// TeraRack node model: per-node micro-ring resonator (MRR) tuning.
//
// Each TeraRack node drives four optical interfaces with 64 MRRs each
// (paper §3.2): per ring direction it has transmit MRRs that modulate onto
// selected wavelengths and receive MRRs that drop selected wavelengths.
// This module derives, from a round's lightpaths, the exact tuning state
// of every node, enforces the per-interface MRR capacity, and diffs
// consecutive rounds so the simulator can charge the 25 us reconfiguration
// delay only when rings actually have to retune (the delta-based
// accounting explored by bench_ablation_reconfig).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "wrht/optical/lightpath.hpp"

namespace wrht::optics {

struct NodeHardware {
  /// Optical interfaces per node per direction (TeraRack: 2 of the 4 total
  /// face each direction).
  std::uint32_t interfaces_per_direction = 2;
  /// MRRs (tunable wavelength ports) per interface.
  std::uint32_t mrrs_per_interface = 64;

  [[nodiscard]] std::uint64_t tx_capacity() const {
    return static_cast<std::uint64_t>(interfaces_per_direction) *
           mrrs_per_interface;
  }
  [[nodiscard]] std::uint64_t rx_capacity() const { return tx_capacity(); }
};

/// One tuned micro-ring: node `node` couples wavelength `wavelength` on
/// direction `direction`'s fiber as transmitter (`tx` true) or receiver.
struct Tuning {
  topo::NodeId node = 0;
  topo::Direction direction = topo::Direction::kClockwise;
  std::uint32_t wavelength = 0;
  bool tx = false;

  auto operator<=>(const Tuning&) const = default;
};

/// The complete MRR state of the network for one round.
class TuningState {
 public:
  TuningState() = default;

  /// Derives the tuning set of a round's lightpaths. Throws
  /// InfeasibleSchedule when any node exceeds its MRR capacity.
  static TuningState from_lightpaths(const std::vector<Lightpath>& paths,
                                     const NodeHardware& hardware);

  [[nodiscard]] const std::set<Tuning>& tunings() const { return tunings_; }
  [[nodiscard]] std::size_t size() const { return tunings_.size(); }

  /// Number of micro-rings that must change state to go from `this` round
  /// to `next` (symmetric difference size): 0 means the circuits can stay
  /// up and no reconfiguration delay is needed. Comparing a state with
  /// itself returns 0 without walking it.
  [[nodiscard]] std::size_t retune_count(const TuningState& next) const;

 private:
  std::set<Tuning> tunings_;
};

}  // namespace wrht::optics
