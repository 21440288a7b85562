#include "wrht/optical/ring_network.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"

namespace wrht::optics {
namespace {

OpticalConfig paper_config() { return OpticalConfig{}; }

TEST(OpticalConfig, RateConventions) {
  OpticalConfig c;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 40e9);  // paper convention
  c.convention = net::RateConvention::kStrictBits;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 5e9);
}

TEST(RingNetwork, RingAllreduceUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::ring_allreduce(16, 32));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);  // never split
  EXPECT_EQ(res.steps, 30u);
}

TEST(RingNetwork, BtreeUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);
}

TEST(RingNetwork, WrhtWavelengthUsageMatchesRequirement) {
  // m=129 on 1024 nodes needs exactly floor(129/2) = 64 wavelengths.
  OpticalConfig cfg = paper_config();
  const RingNetwork net(1024, cfg);
  const auto sched = core::wrht_allreduce(1024, 64, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);
  EXPECT_EQ(res.max_wavelengths_used, 64u);
  EXPECT_EQ(res.total_rounds, res.steps);  // fits the budget, no splitting
}

TEST(RingNetwork, WrhtTimeMatchesClosedForm) {
  // Simulated time must equal Eq. (6) exactly for WRHT (single-round steps,
  // constant payload d).
  OpticalConfig cfg = paper_config();
  const std::size_t elements = 1'000'000;
  const RingNetwork net(1024, cfg);
  const auto sched =
      core::wrht_allreduce(1024, elements, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);

  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  const Seconds expected = core::comm_time(
      res.steps, Bytes(elements * cfg.bytes_per_element), model);
  EXPECT_NEAR(res.total_time.count(), expected.count(), 1e-12);
}

TEST(RingNetwork, RingTimeMatchesClosedForm) {
  OpticalConfig cfg = paper_config();
  const std::uint32_t n = 64;
  const std::size_t elements = 64 * 1000;
  const RingNetwork net(n, cfg);
  const auto res = net.execute(coll::ring_allreduce(n, elements));
  // 2(n-1) steps, each a + (d/n)/B.
  const double per_step = cfg.mrr_reconfig_delay.count() +
                          cfg.oeo_delay.count() +
                          (elements / n * 4.0) / cfg.bytes_per_second();
  EXPECT_NEAR(res.total_time.count(), 2.0 * (n - 1) * per_step, 1e-9);
}

TEST(RingNetwork, StarvedStepsSplitIntoRounds) {
  // A WRHT group step with floor(m/2) = 4 required wavelengths on a 2-lambda
  // fiber must split into 2 rounds, doubling the per-step overhead.
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  const auto res = net.execute(sched);
  EXPECT_GT(res.total_rounds, res.steps);
  EXPECT_LE(res.max_wavelengths_used, 2u);
}

TEST(RingNetwork, SplittingDisabledThrows) {
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  cfg.allow_multi_round_steps = false;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  EXPECT_THROW(net.execute(sched), InfeasibleSchedule);
}

TEST(RingNetwork, StrictBitsSlowsSerializationOnly) {
  OpticalConfig paper = paper_config();
  OpticalConfig strict = paper_config();
  strict.convention = net::RateConvention::kStrictBits;
  const std::size_t elements = 10'000'000;
  const auto sched = core::wrht_allreduce(16, elements, core::WrhtOptions{5, 8});
  const RingNetwork net_p(16, paper);
  const RingNetwork net_s(16, strict);
  const double tp = net_p.execute(sched).total_time.count();
  const double ts = net_s.execute(sched).total_time.count();
  const double overhead = static_cast<double>(sched.num_steps()) *
                          (paper.mrr_reconfig_delay.count() +
                           paper.oeo_delay.count());
  EXPECT_NEAR((ts - overhead) / (tp - overhead), 8.0, 1e-6);
}

TEST(RingNetwork, LongestLightpathReported) {
  const RingNetwork net(15, paper_config());
  const auto sched = core::wrht_allreduce(15, 4, core::WrhtOptions{5, 2});
  const auto res = net.execute(sched);
  // Group members are <= 2 hops from the rep; the all-to-all between reps
  // 2, 7, 12 travels 5 hops.
  EXPECT_EQ(res.longest_lightpath_hops, 5u);
}

TEST(RingNetwork, PatternCacheDoesNotChangeResults) {
  // Execute twice; cached second run must agree exactly.
  const RingNetwork net(32, paper_config());
  const auto sched = coll::ring_allreduce(32, 320);
  const auto a = net.execute(sched);
  const auto b = net.execute(sched);
  EXPECT_DOUBLE_EQ(a.total_time.count(), b.total_time.count());
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used);
}

TEST(RingNetwork, EventKernelDrivesSteps) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  // One launch event per step plus the initial kick-off.
  EXPECT_EQ(res.events_fired, res.steps + 1);
}

TEST(RingNetwork, HringRunsWithinBudget) {
  const RingNetwork net(20, paper_config());
  const auto res = net.execute(coll::hring_allreduce(20, 40, 5));
  EXPECT_LE(res.max_wavelengths_used, 4u);
  EXPECT_EQ(res.steps, coll::hring_builder_steps(20, 5));
}

void expect_rejected_delay(const OpticalConfig& config,
                           const std::string& field) {
  try {
    (void)RingNetwork(8, config);
    ADD_FAILURE() << "a negative " << field << " was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(RingNetwork, Validation) {
  OpticalConfig cfg;
  cfg.wavelengths = 0;
  EXPECT_THROW(RingNetwork(8, cfg), InvalidArgument);
  const RingNetwork net(8, paper_config());
  EXPECT_THROW(net.execute(coll::ring_allreduce(16, 32)), InvalidArgument);
  // Negative delays are config errors that name their field, not a
  // failure deep in the run.
  expect_rejected_delay(
      paper_config().with_mrr_reconfig_delay(Seconds(-1e-3)),
      "mrr_reconfig_delay");
  expect_rejected_delay(paper_config().with_oeo_delay(Seconds(-1e-9)),
                        "oeo_delay");
}

}  // namespace
}  // namespace wrht::optics
