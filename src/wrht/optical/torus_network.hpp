// Optical torus interconnect simulator (§6.1 extension substrate).
//
// Every row and every column of the torus is a WDM optical ring with its
// own fibers and wavelength budget (the natural generalisation of the
// TeraRack ring). A communication step may use many rows/columns at once;
// each ring prices its share exactly like RingNetwork (RWA + rounds) and
// the step lasts as long as the slowest ring. Transfers that are neither
// row-local nor column-local are rejected — torus schedules route
// dimension by dimension, as the paper's §6.1 sketch does.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht::optics {

class TorusBackend;

class TorusNetwork {
 public:
  TorusNetwork(const topo::Torus& torus, OpticalConfig config);

  [[nodiscard]] const topo::Torus& torus() const { return torus_; }
  [[nodiscard]] const OpticalConfig& config() const { return config_; }

  /// Simulates the schedule. Throws InfeasibleSchedule for transfers that
  /// do not stay within one row or one column.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         Rng* rng = nullptr) const;

  /// Observed variant, mirroring RingNetwork: one "torus-step" trace span
  /// per step plus "optical.*" counters. An empty probe makes this
  /// identical to the unobserved overload.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         const obs::Probe& probe,
                                         Rng* rng = nullptr) const;

 private:
  /// The one read of `schedule` before a run: checks that it fits the
  /// torus and is valid, and sums its traffic. Nothing is cached, so no
  /// step is keyed.
  [[nodiscard]] net::ScheduleScan scan(const coll::Schedule& schedule) const;

  /// The observed execute() of a schedule scan() has accepted.
  /// TorusBackend scans first so it can count the run.
  [[nodiscard]] OpticalRunResult execute_scanned(
      const coll::Schedule& schedule, const obs::Probe& probe,
      Rng* rng) const;
  friend class TorusBackend;

  struct RingShare {
    /// Transfers remapped to ring-local node positions.
    std::vector<coll::Transfer> transfers;
    /// Index of each remapped transfer in the step's original transfer
    /// list, so recorded transfers keep their global node ids.
    std::vector<std::size_t> source;
  };

  topo::Torus torus_;
  OpticalConfig config_;
  topo::Ring row_ring_;
  topo::Ring col_ring_;
};

}  // namespace wrht::optics
