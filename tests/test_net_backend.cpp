// Unit tests for the wrht::net layer itself: registry lookup/error
// behaviour, the shared adapter helpers (count_schedule,
// uniform_step_reports), the schedule-only backend's semantics and the
// unified rate convention.
#include "wrht/net/registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/schedule_only.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht {
namespace {

net::BackendConfig config_for(std::uint32_t nodes) {
  net::BackendConfig config;
  config.num_nodes = nodes;
  config.wavelengths = 8;
  return config;
}

// ------------------------------------------------------------- registry

TEST(BackendRegistry, UnknownNameListsRegisteredBackends) {
  net::register_builtin_backends();
  try {
    static_cast<void>(net::BackendRegistry::instance().create(
        "no-such-backend", config_for(8)));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos) << what;
    EXPECT_NE(what.find("optical-ring"), std::string::npos) << what;
    EXPECT_NE(what.find("schedule-only"), std::string::npos) << what;
  }
}

TEST(BackendRegistry, ZeroNodesRejected) {
  net::register_builtin_backends();
  EXPECT_THROW(static_cast<void>(net::BackendRegistry::instance().create(
                   "optical-ring", config_for(0))),
               InvalidArgument);
}

TEST(BackendRegistry, RegistrationIsIdempotent) {
  net::register_builtin_backends();
  const auto before = net::BackendRegistry::instance().names();
  net::register_builtin_backends();
  EXPECT_EQ(net::BackendRegistry::instance().names(), before);
}

TEST(BackendRegistry, DescribeUnknownIsEmpty) {
  EXPECT_EQ(net::BackendRegistry::instance().describe("no-such-backend"), "");
}

TEST(BackendRegistry, TorusShapeMustFactorNodeCount) {
  net::register_builtin_backends();
  net::BackendConfig config = config_for(12);
  config.torus_rows = 5;  // 5 * 0 != 12
  EXPECT_THROW(static_cast<void>(net::BackendRegistry::instance().create(
                   "optical-torus", config)),
               InvalidArgument);
  config.torus_rows = 3;
  config.torus_cols = 4;
  EXPECT_EQ(net::BackendRegistry::instance()
                .create("optical-torus", config)
                ->name(),
            "optical-torus");
}

// ------------------------------------------------------ shared helpers

TEST(NetHelpers, CountScheduleIsNoOpWithoutCounters) {
  const coll::Schedule sched = coll::ring_allreduce(8, 64);
  // must not crash
  net::count_schedule(obs::Probe{},
                      net::scan_schedule(sched, net::StepKeys::kNone));
}

TEST(NetHelpers, CountScheduleRecordsTraffic) {
  const coll::Schedule sched = coll::ring_allreduce(8, 64);
  const net::ScheduleScan scan =
      net::scan_schedule(sched, net::StepKeys::kNone);
  obs::Counters counters;
  net::count_schedule(obs::Probe{nullptr, &counters}, scan);
  net::count_schedule(obs::Probe{nullptr, &counters}, scan);
  EXPECT_EQ(counters.value("net.executions"), 2u);
  EXPECT_EQ(counters.value("net.steps"), 2 * sched.num_steps());
  EXPECT_EQ(counters.value("net.traffic_elements"),
            2 * sched.total_traffic_elements());
}

TEST(NetHelpers, UniformStepReportsAreCumulative) {
  const std::vector<Seconds> times = {Seconds(1e-6), Seconds(3e-6),
                                      Seconds(2e-6)};
  const auto steps = net::uniform_step_reports(times);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].label, "step 0");
  EXPECT_EQ(steps[0].start.count(), 0.0);
  EXPECT_EQ(steps[1].start.count(), 1e-6);
  EXPECT_EQ(steps[2].start.count(), 4e-6);
  EXPECT_EQ(steps[2].duration.count(), 2e-6);
  EXPECT_EQ(steps[2].rounds, 1u);
}

// ------------------------------------------------- schedule-only backend

TEST(ScheduleOnly, CountsStepsWithoutPricingTime) {
  const net::ScheduleOnlyBackend backend(8);
  coll::Schedule sched("mixed", 8, 100);
  coll::Step& first = sched.add_step("exchange");
  coll::Transfer t;
  t.src = 0;
  t.dst = 1;
  t.count = 100;
  first.transfers.push_back(t);
  sched.add_step();  // empty barrier step: zero rounds

  const RunReport report = backend.execute(sched);
  EXPECT_EQ(report.backend, "schedule-only");
  EXPECT_EQ(report.steps, 2u);
  EXPECT_EQ(report.rounds, 1u);  // only the non-empty step counts a round
  EXPECT_EQ(report.total_time.count(), 0.0);
  ASSERT_EQ(report.step_reports.size(), 2u);
  EXPECT_EQ(report.step_reports[0].label, "exchange");
  EXPECT_EQ(report.step_reports[1].label, "step 1");  // fallback label
  EXPECT_FALSE(backend.capabilities().prices_time);
}

TEST(ScheduleOnly, RejectsOversizedSchedules) {
  const net::ScheduleOnlyBackend backend(4);
  EXPECT_THROW(static_cast<void>(backend.execute(coll::ring_allreduce(8, 64))),
               InvalidArgument);
}

// ------------------------------------------------------ rate convention

TEST(RateConvention, SharedEnumDrivesBothConfigs) {
  // One net::RateConvention feeds both engine configs; strict bits is 8x
  // slower per byte under both.
  EXPECT_EQ(net::effective_bytes_per_second(
                40e9, net::RateConvention::kPaperConvention),
            40e9);
  EXPECT_EQ(
      net::effective_bytes_per_second(40e9, net::RateConvention::kStrictBits),
      40e9 / 8.0);

  const optics::OpticalConfig optical =
      optics::OpticalConfig{}.with_convention(
          net::RateConvention::kStrictBits);
  EXPECT_EQ(optical.convention, net::RateConvention::kStrictBits);

  const elec::ElectricalConfig electrical =
      elec::ElectricalConfig{}.with_convention(
          net::RateConvention::kStrictBits);
  EXPECT_EQ(electrical.convention, net::RateConvention::kStrictBits);
  EXPECT_EQ(electrical.bytes_per_second(),
            electrical.link_rate.count() / 8.0);
}

TEST(RateConvention, ElectricalConventionBuilderRoundTrips) {
  const elec::ElectricalConfig cfg = elec::ElectricalConfig{}.with_convention(
      net::RateConvention::kStrictBits);
  EXPECT_EQ(cfg.convention, net::RateConvention::kStrictBits);
  EXPECT_EQ(elec::ElectricalConfig{}
                .with_convention(net::RateConvention::kPaperConvention)
                .convention,
            net::RateConvention::kPaperConvention);
}

TEST(RateConvention, ConventionChangesBackendPricing) {
  net::register_builtin_backends();
  const coll::Schedule sched = coll::ring_allreduce(8, 4096);
  for (const char* name : {"optical-ring", "electrical-flow"}) {
    net::BackendConfig config = config_for(8);
    const double paper = net::BackendRegistry::instance()
                             .create(name, config)
                             ->execute(sched)
                             .total_time.count();
    config.convention = net::RateConvention::kStrictBits;
    const double strict = net::BackendRegistry::instance()
                              .create(name, config)
                              ->execute(sched)
                              .total_time.count();
    EXPECT_GT(strict, paper) << name;
  }
}

}  // namespace
}  // namespace wrht
