// Invariants of overlapped reconfiguration (ReconfigPolicy::kOverlapped).
//
// Overlapping the retune for round k+1 with round k's transmission is a
// pure re-pricing: it must not change WHAT the schedule does, only WHEN
// the reconfiguration delay lands. check_overlap_consistency re-derives
// that claim on the optical ring engine:
//   * structure   — same steps, rounds and wavelength high-water marks as
//     the serial (kEveryRound) run, so the RWA was untouched;
//   * conflicts   — every round of the schedule is independently
//     re-verified conflict-free (the serial invariant still holds);
//   * monotonic   — the overlapped run is never slower, per step and in
//     total;
//   * identity    — overlapped total_time + overlap_hidden equals the
//     serial total exactly (every hidden second is accounted for);
//   * accounting  — with occupancy sampling on, the per-step breakdown
//     (reconfiguration residual + conversion + transmission + straggler
//     wait + idle) still tiles every step and the run.
#pragma once

#include <cstdint>

#include "wrht/collectives/schedule.hpp"
#include "wrht/verify/report.hpp"

namespace wrht::verify {

struct OverlapOptions {
  std::uint32_t wavelengths = 64;
  /// Relative tolerance for the time identities (floating-point sums).
  double tolerance = 1e-9;
};

/// Runs `schedule` on a `ring_size`-node optical ring under kEveryRound and
/// kOverlapped and re-derives every overlap invariant above.
[[nodiscard]] CheckResult check_overlap_consistency(
    const coll::Schedule& schedule, std::uint32_t ring_size,
    const OverlapOptions& options = {});

}  // namespace wrht::verify
