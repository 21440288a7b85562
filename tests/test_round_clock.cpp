// net::RoundClock: the one round-pricing rule the optical engines and the
// planner share. Pins each policy's charge, hidden-time and window rules
// and the left-to-right grouping of Eq. (6).
#include "wrht/net/round_clock.hpp"

#include <gtest/gtest.h>

namespace wrht::net {
namespace {

// The paper's defaults (Table 2): a = 25 us, O/E/O = 497 fs, 4-byte
// elements at 40e9 bytes/s.
const Seconds kReconfig(25e-6);
const Seconds kOeo(497e-15);

Seconds serialization(std::size_t elements) {
  return serialization_time(elements, 4, 40e9);
}

TEST(RoundClock, EveryRoundIsEq6PerStepTerm) {
  RoundClock clock(ReconfigPolicy::kEveryRound, kReconfig, kOeo);
  // a + d/B with a = 25 us + 497 fs and d = 4e6 bytes.
  const RoundClock::Round round = clock.next(serialization(1'000'000), true);
  EXPECT_NEAR(round.duration.count(), 25e-6 + 497e-15 + 4e6 / 40e9, 1e-15);
  EXPECT_EQ(round.reconfig, kReconfig);
}

TEST(RoundClock, GroupsReconfigAndConversionBeforeSerialization) {
  // A 6-element round is one where the two groupings round apart at the
  // defaults; every policy that charges the full delay adds a + O/E/O
  // first.
  const Seconds ser = serialization(6);
  const Seconds left = (kReconfig + kOeo) + ser;
  ASSERT_NE(left, kReconfig + (kOeo + ser));
  for (const ReconfigPolicy policy :
       {ReconfigPolicy::kEveryRound, ReconfigPolicy::kOnRetune,
        ReconfigPolicy::kOverlapped}) {
    RoundClock clock(policy, kReconfig, kOeo);
    EXPECT_EQ(clock.next(ser, true).duration, left) << to_string(policy);
  }
}

TEST(RoundClock, EveryRoundChargesEveryRoundEvenAFreeOne) {
  for (const Seconds a : {kReconfig, Seconds(0.0)}) {
    RoundClock clock(ReconfigPolicy::kEveryRound, a, kOeo);
    for (int r = 0; r < 3; ++r) {
      // `retunes` is not read: every round pays the full delay.
      const RoundClock::Round round = clock.next(serialization(100), r == 0);
      EXPECT_EQ(round.reconfig, a);
    }
    EXPECT_EQ(clock.charges(), 3u);
    EXPECT_EQ(clock.hidden(), Seconds(0.0));
  }
}

TEST(RoundClock, OnRetuneChargesOnlyRetuningRounds) {
  for (const Seconds a : {kReconfig, Seconds(0.0)}) {
    RoundClock clock(ReconfigPolicy::kOnRetune, a, kOeo);
    const Seconds ser = serialization(100);
    EXPECT_EQ(clock.next(ser, true).reconfig, a);
    const RoundClock::Round kept = clock.next(ser, false);
    EXPECT_EQ(kept.reconfig, Seconds(0.0));
    EXPECT_EQ(kept.duration, kOeo + ser);
    EXPECT_EQ(clock.next(ser, true).reconfig, a);
    // A retune is a charge even when it costs nothing.
    EXPECT_EQ(clock.charges(), 2u);
    EXPECT_EQ(clock.hidden(), Seconds(0.0));
  }
}

TEST(RoundClock, OverlappedChargesTheResidualAndHidesTheRest) {
  RoundClock clock(ReconfigPolicy::kOverlapped, kReconfig, kOeo);
  // Round 0 has nothing to hide behind and pays in full.
  const Seconds small = serialization(100);  // 10 ns, far below a
  EXPECT_EQ(clock.next(small, false).reconfig, kReconfig);
  // The window is the previous round's O/E/O + serialization.
  const Seconds residual = kReconfig - (kOeo + small);
  const Seconds large = serialization(1'000'000);  // 100 us, above a
  EXPECT_EQ(clock.next(large, true).reconfig, residual);
  // Behind a window longer than a, the retune hides completely and the
  // round is no charge.
  const RoundClock::Round hidden = clock.next(small, true);
  EXPECT_EQ(hidden.reconfig, Seconds(0.0));
  EXPECT_EQ(hidden.duration, kOeo + small);
  EXPECT_EQ(clock.charges(), 2u);
  EXPECT_EQ(clock.hidden(), (Seconds(0.0) + (kReconfig - residual)) +
                                kReconfig);
}

TEST(RoundClock, OverlappedFirstRoundHidesInTheGivenWindow) {
  // The torus passes the previous step's duration as the first window.
  RoundClock clock(ReconfigPolicy::kOverlapped, kReconfig, kOeo,
                   Seconds(10e-6));
  EXPECT_EQ(clock.next(serialization(100), true).reconfig,
            kReconfig - Seconds(10e-6));
  RoundClock covered(ReconfigPolicy::kOverlapped, kReconfig, kOeo,
                     Seconds(1e-3));
  EXPECT_EQ(covered.next(serialization(100), true).reconfig, Seconds(0.0));
  EXPECT_EQ(covered.charges(), 0u);
  EXPECT_EQ(covered.hidden(), kReconfig);
  // The window does nothing under the other policies.
  RoundClock serial(ReconfigPolicy::kEveryRound, kReconfig, kOeo,
                    Seconds(1e-3));
  EXPECT_EQ(serial.next(serialization(100), true).reconfig, kReconfig);
}

TEST(RoundClock, OverlappedWithNoDelayChargesNothing) {
  RoundClock clock(ReconfigPolicy::kOverlapped, Seconds(0.0), kOeo);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(clock.next(serialization(6), true).reconfig, Seconds(0.0));
  }
  EXPECT_EQ(clock.charges(), 0u);
  EXPECT_EQ(clock.hidden(), Seconds(0.0));
}

}  // namespace
}  // namespace wrht::net
