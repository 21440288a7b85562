// The price of a communication round: the paper's Eq. (6) under a
// net::ReconfigPolicy, written once. A RoundClock walks a run's rounds in
// order and prices each as
//
//   (reconfiguration as the policy charges it + O/E/O) + serialization,
//
// grouped left to right. The optical ring and torus engines and the
// schedule planner all step one, so a plan::predict of a schedule the
// planner models round for round equals its simulation to the bit.
//
// Charges: every round under kEveryRound; a round whose tuning differs
// from the previous round's under kOnRetune; a round with a positive
// residual max(0, a - window) under kOverlapped, where the window is the
// previous round's O/E/O + serialization and the rest of a is hidden.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "wrht/common/units.hpp"
#include "wrht/net/reconfig_policy.hpp"

namespace wrht::net {

/// Eq. (6)'s d/R: the time `elements` elements of `bytes_per_element`
/// bytes take at `bytes_per_second`.
[[nodiscard]] inline Seconds serialization_time(std::size_t elements,
                                                std::uint32_t bytes_per_element,
                                                double bytes_per_second) {
  return Seconds(static_cast<double>(elements) * bytes_per_element /
                 bytes_per_second);
}

class RoundClock {
 public:
  /// One priced round.
  struct Round {
    Seconds reconfig{0.0};  ///< reconfiguration on the critical path
    Seconds duration{0.0};  ///< (reconfig + O/E/O) + serialization
  };

  /// `reconfig` is the full MRR reconfiguration delay and `oeo` the O/E/O
  /// conversion delay. `window` is the time the first round's retune can
  /// hide in under kOverlapped: zero when nothing ran before it.
  RoundClock(ReconfigPolicy policy, Seconds reconfig, Seconds oeo,
             Seconds window = Seconds(0.0))
      : policy_(policy), full_(reconfig), oeo_(oeo), window_(window) {}

  /// Prices the next round, whose largest transfer serializes in
  /// `serialization`. `retunes` (read under kOnRetune only) says whether
  /// its tuning differs from the previous round's.
  [[nodiscard]] Round next(Seconds serialization, bool retunes) {
    Seconds reconfig = full_;
    bool charged = true;
    switch (policy_) {
      case ReconfigPolicy::kEveryRound:
        break;
      case ReconfigPolicy::kOnRetune:
        charged = retunes;
        if (!retunes) reconfig = Seconds(0.0);
        break;
      case ReconfigPolicy::kOverlapped:
        reconfig = std::max(Seconds(0.0), full_ - window_);
        charged = reconfig.count() > 0.0;
        hidden_ += full_ - reconfig;
        window_ = oeo_ + serialization;
        break;
    }
    if (charged) ++charges_;
    return Round{reconfig, reconfig + oeo_ + serialization};
  }

  /// Rounds charged so far.
  [[nodiscard]] std::uint64_t charges() const { return charges_; }
  /// Reconfiguration time hidden so far (kOverlapped; zero otherwise).
  [[nodiscard]] Seconds hidden() const { return hidden_; }

 private:
  ReconfigPolicy policy_;
  Seconds full_;
  Seconds oeo_;
  Seconds window_;
  std::uint64_t charges_ = 0;
  Seconds hidden_{0.0};
};

}  // namespace wrht::net
