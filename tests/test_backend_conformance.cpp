// Backend conformance suite: every backend in net::BackendRegistry must
// honour the same RunReport contract, whatever its internal model. The
// suite is table-driven off the registry — registering a new backend
// automatically subjects it to every invariant here — and picks canonical
// schedules by capability (torus-style backends get dimension-local
// traffic, everything else gets the full Ring All-reduce).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/collectives/schedule.hpp"
#include "wrht/common/error.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/transfer_log.hpp"

namespace wrht {
namespace {

constexpr std::uint32_t kNodes = 16;      // 4 x 4 under the torus default
constexpr std::uint32_t kWavelengths = 8;
constexpr std::size_t kElements = 1024;

net::BackendConfig test_config() {
  net::BackendConfig config;
  config.num_nodes = kNodes;
  config.wavelengths = kWavelengths;
  return config;
}

/// Neighbour exchange along torus rows, then along torus columns — legal
/// on every backend including dimension-local ones (4 x 4 layout: node
/// r * 4 + c).
coll::Schedule dimension_local_schedule() {
  coll::Schedule sched("dim-local-exchange", kNodes, kElements);
  coll::Step& rows = sched.add_step("row exchange");
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      coll::Transfer t;
      t.src = r * 4 + c;
      t.dst = r * 4 + (c + 1) % 4;
      t.count = kElements / 4;
      rows.transfers.push_back(t);
    }
  }
  coll::Step& cols = sched.add_step("column exchange");
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      coll::Transfer t;
      t.src = r * 4 + c;
      t.dst = ((r + 1) % 4) * 4 + c;
      t.count = kElements / 4;
      t.kind = coll::TransferKind::kCopy;
      cols.transfers.push_back(t);
    }
  }
  return sched;
}

/// Canonical schedules for a backend: the dimension-local exchange always
/// applies; backends that route arbitrary pairs also get the full Ring
/// All-reduce (2(N-1) steps, every step crossing torus rows).
std::vector<coll::Schedule> canonical_schedules(
    const net::BackendCapabilities& caps) {
  std::vector<coll::Schedule> out;
  out.push_back(dimension_local_schedule());
  if (!caps.dimension_local_transfers_only) {
    out.push_back(coll::ring_allreduce(kNodes, kElements));
  }
  return out;
}

/// Every counter `counters` holds, by name: "" when the run counted
/// nothing.
std::string counter_names(const obs::Counters& counters) {
  std::string names;
  for (const auto& [name, value] : counters.snapshot()) names += " " + name;
  return names;
}

class BackendConformance : public testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { net::register_builtin_backends(); }

  static std::unique_ptr<net::Backend> make_backend() {
    return net::BackendRegistry::instance().create(GetParam(), test_config());
  }

  static std::unique_ptr<net::Backend> make_observed_backend() {
    net::BackendConfig config = test_config();
    config.collect_utilization = true;
    return net::BackendRegistry::instance().create(GetParam(), config);
  }
};

TEST_P(BackendConformance, NameAndDescriptionAreStable) {
  const auto backend = make_backend();
  EXPECT_EQ(backend->name(), GetParam());
  EXPECT_FALSE(backend->describe().empty());
  // One description per backend: the registry lists the one it gives.
  EXPECT_EQ(net::BackendRegistry::instance().describe(GetParam()),
            backend->describe());
}

TEST_P(BackendConformance, ReportMirrorsScheduleStructure) {
  const auto backend = make_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    const RunReport report = backend->execute(sched);
    EXPECT_EQ(report.backend, backend->name()) << sched.algorithm();
    EXPECT_EQ(report.steps, sched.num_steps()) << sched.algorithm();
    ASSERT_EQ(report.step_reports.size(), sched.num_steps())
        << sched.algorithm();
    EXPECT_GE(report.rounds, report.steps) << sched.algorithm();
  }
}

TEST_P(BackendConformance, StepTimelineIsMonotoneAndSumsToTotal) {
  const auto backend = make_backend();
  const bool prices_time = backend->capabilities().prices_time;
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    const RunReport report = backend->execute(sched);

    Seconds cursor(0.0);
    Seconds sum(0.0);
    for (const StepReport& step : report.step_reports) {
      // Steps are barriers: each starts exactly where the previous ended.
      EXPECT_NEAR(step.start.count(), cursor.count(),
                  1e-12 * (1.0 + cursor.count()))
          << sched.algorithm() << " @ " << step.label;
      EXPECT_GE(step.duration.count(), 0.0);
      cursor += step.duration;
      sum += step.duration;
    }
    EXPECT_NEAR(sum.count(), report.total_time.count(),
                1e-9 * (1.0 + report.total_time.count()))
        << sched.algorithm();
    if (prices_time) {
      EXPECT_GT(report.total_time.count(), 0.0) << sched.algorithm();
    } else {
      EXPECT_EQ(report.total_time.count(), 0.0) << sched.algorithm();
    }
  }
}

TEST_P(BackendConformance, TrafficCountersMatchSchedule) {
  const auto backend = make_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    obs::Counters counters;
    static_cast<void>(backend->execute(sched, obs::Probe{nullptr, &counters}));
    EXPECT_EQ(counters.value("net.executions"), 1u) << sched.algorithm();
    EXPECT_EQ(counters.value("net.steps"), sched.num_steps())
        << sched.algorithm();
    EXPECT_EQ(counters.value("net.traffic_elements"),
              sched.total_traffic_elements())
        << sched.algorithm();
  }
}

// Every backend validates a schedule before it counts or prices any of
// it: a self-transfer in the last step leaves a fresh registry empty.
TEST_P(BackendConformance, RejectedScheduleCountsNothing) {
  const auto backend = make_backend();
  coll::Schedule sched = dimension_local_schedule();
  coll::Transfer self;
  self.src = 5;
  self.dst = 5;
  self.count = kElements;
  sched.add_step("self-transfer").transfers.push_back(self);

  obs::Counters counters;
  try {
    static_cast<void>(backend->execute(sched, obs::Probe{nullptr, &counters}));
    ADD_FAILURE() << "a self-transfer was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "Schedule: self-transfer in step 2");
  }
  EXPECT_EQ(counter_names(counters), "");
}

// A transfer log holds one run. Every backend that writes one rejects a
// second run into it, inside the engine after the scan has passed, and
// that run counts nothing.
TEST_P(BackendConformance, RunIntoAUsedTransferLogCountsNothing) {
  const auto backend = make_backend();
  const coll::Schedule sched = dimension_local_schedule();
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  static_cast<void>(backend->execute(sched, probe));

  obs::Counters counters;
  probe.counters = &counters;
  if (log.empty()) {
    // schedule-only keeps no transfer log, so it has nothing to reject.
    static_cast<void>(backend->execute(sched, probe));
    EXPECT_EQ(counters.value("net.executions"), 1u);
    return;
  }
  EXPECT_THROW(static_cast<void>(backend->execute(sched, probe)),
               InvalidArgument);
  EXPECT_EQ(counter_names(counters), "");
}

// A transfer from torus node (0, 0) to (1, 1) passes the scan everywhere.
// A backend that routes any pair carries it; a dimension-local one rejects
// it in its engine, and that run counts nothing.
TEST_P(BackendConformance, CrossDimensionTransferCountsOnlyWhereCarried) {
  const auto backend = make_backend();
  coll::Schedule sched("cross-dimension", kNodes, kElements);
  coll::Transfer diagonal;
  diagonal.src = 0;
  diagonal.dst = 5;
  diagonal.count = kElements;
  sched.add_step("diagonal").transfers.push_back(diagonal);

  obs::Counters counters;
  const obs::Probe probe{nullptr, &counters};
  if (backend->capabilities().dimension_local_transfers_only) {
    EXPECT_THROW(static_cast<void>(backend->execute(sched, probe)),
                 InfeasibleSchedule);
    EXPECT_EQ(counter_names(counters), "");
  } else {
    static_cast<void>(backend->execute(sched, probe));
    EXPECT_EQ(counters.value("net.executions"), 1u);
  }
}

TEST_P(BackendConformance, EmitsAtLeastOneSpanPerStep) {
  const auto backend = make_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    obs::MemoryTraceSink sink;
    obs::Probe probe;
    probe.trace = &sink;
    probe.track = 7;
    static_cast<void>(backend->execute(sched, probe));
    EXPECT_GE(sink.spans().size(), sched.num_steps()) << sched.algorithm();
    for (const obs::TraceSpan& span : sink.spans()) {
      EXPECT_EQ(span.track, 7u);
      EXPECT_FALSE(span.category.empty());
    }
  }
}

TEST_P(BackendConformance, WavelengthReportingMatchesCapability) {
  const auto backend = make_backend();
  const bool reports = backend->capabilities().reports_wavelengths;
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    const RunReport report = backend->execute(sched);
    if (reports) {
      EXPECT_GT(report.max_wavelengths_used(), 0u) << sched.algorithm();
      EXPECT_LE(report.max_wavelengths_used(), kWavelengths)
          << sched.algorithm();
    } else {
      EXPECT_EQ(report.max_wavelengths_used(), 0u) << sched.algorithm();
    }
  }
}

TEST_P(BackendConformance, UtilizationReportingMatchesCapability) {
  const auto backend = make_observed_backend();
  const auto caps = backend->capabilities();
  for (const coll::Schedule& sched : canonical_schedules(caps)) {
    const RunReport report = backend->execute(sched);
    if (!caps.reports_utilization) {
      EXPECT_EQ(report.utilization, 0.0) << sched.algorithm();
      EXPECT_EQ(report.resources_observed, 0u) << sched.algorithm();
      EXPECT_EQ(report.breakdown.total().count(), 0.0) << sched.algorithm();
      continue;
    }
    EXPECT_GT(report.resources_observed, 0u) << sched.algorithm();
    EXPECT_GE(report.utilization, 0.0) << sched.algorithm();
    EXPECT_LE(report.utilization, 1.0) << sched.algorithm();
    // Accounting identity: the run breakdown and every step breakdown tile
    // their interval exactly.
    EXPECT_NEAR(report.breakdown.total().count(), report.total_time.count(),
                1e-9 * (1.0 + report.total_time.count()))
        << sched.algorithm();
    for (const StepReport& step : report.step_reports) {
      EXPECT_NEAR(step.breakdown.total().count(), step.duration.count(),
                  1e-9 * (1.0 + step.duration.count()))
          << sched.algorithm() << " @ " << step.label;
    }
  }
}

TEST_P(BackendConformance, UnobservedRunsKeepUtilizationFieldsZero) {
  const auto backend = make_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    const RunReport report = backend->execute(sched);
    EXPECT_EQ(report.utilization, 0.0) << sched.algorithm();
    EXPECT_EQ(report.resources_observed, 0u) << sched.algorithm();
    EXPECT_EQ(report.breakdown.total().count(), 0.0) << sched.algorithm();
  }
}

TEST_P(BackendConformance, UtilizationCollectionDoesNotPerturbTiming) {
  const auto plain = make_backend();
  const auto observed = make_observed_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           plain->capabilities())) {
    const RunReport a = plain->execute(sched);
    const RunReport b = observed->execute(sched);
    EXPECT_EQ(a.total_time.count(), b.total_time.count())
        << sched.algorithm();
    EXPECT_EQ(a.rounds, b.rounds) << sched.algorithm();
    EXPECT_EQ(a.events_fired, b.events_fired) << sched.algorithm();
  }
}

TEST_P(BackendConformance, OverlappedPolicyMatchesCapability) {
  const auto serial = make_backend();
  net::BackendConfig config = test_config();
  config.reconfig_policy = net::ReconfigPolicy::kOverlapped;
  const auto overlapped =
      net::BackendRegistry::instance().create(GetParam(), config);
  const bool supported = serial->capabilities().supports_reconfig_overlap;
  for (const coll::Schedule& sched : canonical_schedules(
           serial->capabilities())) {
    const RunReport a = serial->execute(sched);
    const RunReport b = overlapped->execute(sched);
    // Re-pricing only: the schedule structure is untouched either way.
    EXPECT_EQ(a.steps, b.steps) << sched.algorithm();
    EXPECT_EQ(a.rounds, b.rounds) << sched.algorithm();
    if (supported) {
      // Hiding reconfiguration delay can only help, and on these canonical
      // schedules (every round retunes-or-not aside, kEveryRound charges
      // fully) it must strictly help.
      EXPECT_LE(b.total_time.count(),
                a.total_time.count() + 1e-12 * (1.0 + a.total_time.count()))
          << sched.algorithm();
      EXPECT_LT(b.total_time.count(), a.total_time.count())
          << sched.algorithm();
    } else {
      // Backends without an overlap notion must price all policies
      // identically — never silently diverge.
      EXPECT_EQ(a.total_time.count(), b.total_time.count())
          << sched.algorithm();
    }
  }
}

TEST_P(BackendConformance, RepeatedExecutionIsDeterministic) {
  const auto backend = make_backend();
  for (const coll::Schedule& sched : canonical_schedules(
           backend->capabilities())) {
    const RunReport first = backend->execute(sched);
    const RunReport second = backend->execute(sched);
    EXPECT_EQ(first.total_time.count(), second.total_time.count())
        << sched.algorithm();
    EXPECT_EQ(first.rounds, second.rounds) << sched.algorithm();
    EXPECT_EQ(first.events_fired, second.events_fired) << sched.algorithm();
  }
}

std::vector<std::string> all_backend_names() {
  net::register_builtin_backends();
  return net::BackendRegistry::instance().names();
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, BackendConformance,
                         testing::ValuesIn(all_backend_names()),
                         [](const testing::TestParamInfo<std::string>& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The registry must ship every engine the library documents.
TEST(BackendRegistryContents, AllFourEnginesPlusScheduleOnlyRegistered) {
  net::register_builtin_backends();
  const auto& registry = net::BackendRegistry::instance();
  for (const char* name :
       {"optical-ring", "optical-torus", "electrical-flow",
        "electrical-packet", "schedule-only"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

}  // namespace
}  // namespace wrht
