// Optical torus interconnect simulator (§6.1 extension substrate).
//
// Every row and every column of the torus is a WDM optical ring with its
// own fiber per direction and wavelength budget (the natural
// generalisation of the TeraRack ring). A communication step may use many
// rows/columns at once; each ring prices its share exactly like
// RingNetwork (RWA + rounds; with multi-round splitting off, a share that
// needs a second round rejects the step) and the step lasts as long as the
// slowest ring. Transfers that are neither row-local nor column-local are
// rejected — torus schedules route dimension by dimension, as the paper's
// §6.1 sketch does.
//
// Under first-fit a ring's RWA depends only on its ring size and its
// local (src, dst) list, so a step solves each distinct share once: the
// 1,024 identical row shares of a 1024 x 1024 WRHT row step are one
// problem. Each ring still prices its own transfer counts and records its
// own lane.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/rwa.hpp"
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
  /// TorusBackend scans first and counts the run once this returns.
  [[nodiscard]] OpticalRunResult execute_scanned(
      const coll::Schedule& schedule, const obs::Probe& probe,
      Rng* rng) const;
  friend class TorusBackend;

  /// A step's transfers partitioned onto the torus's rings in flat slots:
  /// column c is slot c, row r is slot cols + r.
  struct Shares {
    /// Slot s holds transfers[begin[s], begin[s + 1]).
    std::vector<std::uint32_t> begin;
    /// Transfers remapped to ring-local node positions, each slot's in
    /// step order, direction hints dropped.
    std::vector<coll::Transfer> transfers;
    /// Index of each remapped transfer in the step's transfer list, so
    /// recorded transfers keep their global node ids.
    std::vector<std::uint32_t> source;
    /// The slots holding a transfer, in slot order: the order the step's
    /// rings are solved, priced and recorded in.
    std::vector<std::uint32_t> used;

    [[nodiscard]] std::span<const coll::Transfer> share(
        std::uint32_t slot) const {
      return {transfers.data() + begin[slot], begin[slot + 1] - begin[slot]};
    }
  };

  /// Partitions `step` onto the rings. Throws InfeasibleSchedule for a
  /// transfer that leaves both its row and its column.
  [[nodiscard]] Shares partition(const coll::Step& step) const;

  /// RWA for every ring of a step: one result per distinct first-fit
  /// share (its ring's size and its local (src, dst) list), or per share
  /// under random-fit; `of[u]` is the result of `shares.used[u]`.
  [[nodiscard]] std::vector<RoundsResult> solve(
      const Shares& shares, std::vector<std::uint32_t>& of, Rng* rng) const;

  /// "row" or "col", `separator`, then the ring's index.
  [[nodiscard]] std::string ring_name(std::uint32_t slot,
                                      const char* separator) const;

  topo::Torus torus_;
  OpticalConfig config_;
  topo::Ring row_ring_;
  topo::Ring col_ring_;
};

}  // namespace wrht::optics
