// Differential oracle: discrete-event simulator vs the analytical model.
//
// The optical ring simulator (optics::RingNetwork) prices a schedule by
// driving every step through RWA and the event kernel. The paper's Eq. (6)
// model prices the same schedule as theta * (a + d/B), theta counting the
// non-empty steps (an empty step has no round and is free on both sides).
// These are two independent implementations of the same quantity, so they
// cross-check:
//   * when every step fits in a single RWA round, the simulated time must
//     match the analytical time within a relative tolerance (default 1%);
//   * when steps split into multiple rounds the analytical model is a
//     strict lower bound — extra rounds only add reconfiguration and
//     serialization time, never remove it.
// The analytical side is computed here from core::comm_time, NOT from the
// net::RoundClock the engines price on, so a pricing bug in either module
// surfaces as a disagreement.
#pragma once

#include "wrht/collectives/schedule.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/verify/report.hpp"

namespace wrht::verify {

struct DifferentialOptions {
  optics::OpticalConfig config{};
  /// Maximum |simulated - analytical| / analytical when single-round.
  double rel_tolerance = 0.01;
  /// Backend to price the simulated side with; nullptr builds an
  /// optics::RingBackend from `config`. Any net::Backend works — the
  /// Eq. (6) bound applies to every engine that prices the paper's
  /// convention — but `config` must then describe the same pricing
  /// (rates, overheads) for the analytical side to be comparable.
  const net::Backend* backend = nullptr;
};

struct DifferentialReport {
  CheckResult result;
  double simulated_seconds = 0.0;
  double analytical_seconds = 0.0;
  /// |simulated - analytical| / analytical (0 when analytical is 0).
  double rel_error = 0.0;
  /// True when every non-empty step took exactly one RWA round (an empty
  /// step takes none and is free on both sides), i.e. the Eq. (6) regime
  /// where the two models must agree tightly.
  bool single_round = false;

  [[nodiscard]] bool ok() const { return result.ok(); }
};

/// Prices `schedule` with both models and reports any disagreement.
[[nodiscard]] DifferentialReport check_differential(
    const coll::Schedule& schedule, const DifferentialOptions& options = {});

}  // namespace wrht::verify
