// Per-tenant JCT blame tests: the accounting identity on a bursty
// multi-tenant workload, the queueing/fragmentation wait split, the
// event-log replay path, "service"-kind wrht-blame-1 serialization, and
// cross-policy diffing.
#include "wrht/diag/svc_blame.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "wrht/diag/blame_json.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/verify/blame.hpp"

namespace wrht::diag {
namespace {

std::vector<svc::Job> bursty_jobs(std::uint64_t seed,
                                  std::uint32_t num_jobs = 32) {
  svc::WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.num_nodes = 8;
  workload.fabric_wavelengths = 8;
  workload.mean_interarrival = Seconds(0.005);  // oversubscribed: real queue
  workload.burstiness = 0.5;
  workload.seed = seed;
  return svc::generate_workload(workload);
}

svc::ServiceConfig service_config(svc::PolicyKind policy) {
  svc::ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = policy;
  return config;
}

TEST(SvcBlame, IdentityHoldsOnBurstyWorkloadAcrossPolicies) {
  const std::vector<svc::Job> jobs = bursty_jobs(11);
  for (const svc::PolicyKind policy : svc::all_policies()) {
    const svc::ServiceConfig config = service_config(policy);
    svc::FabricService service(config);
    const svc::ServiceReport report = service.run(jobs);
    const ServiceBlame blame = build_service_blame(
        report, config.planner, config.fabric_wavelengths);
    const verify::CheckResult check = verify::check_blame_identity(blame);
    EXPECT_TRUE(check.ok())
        << svc::to_string(policy) << ": " << check.summary();
    EXPECT_EQ(blame.jobs, report.records.size());

    // The blame total is the sum of JCTs, computed independently here.
    double jct_sum = 0.0;
    double wait_sum = 0.0;
    for (const svc::JobRecord& r : report.records) {
      jct_sum += r.jct().count();
      wait_sum += r.queue_wait().count();
    }
    EXPECT_NEAR(blame.total_jct.count(), jct_sum, 1e-9 * jct_sum + 1e-12);
    // Queueing + fragmentation partition exactly the time spent waiting.
    EXPECT_NEAR(blame.categories[BlameCategory::kQueueing] +
                    blame.categories[BlameCategory::kFragmentation],
                wait_sum, 1e-9 * jct_sum + 1e-12)
        << svc::to_string(policy);
  }
}

TEST(SvcBlame, TenantsPartitionTheTotal) {
  const svc::ServiceConfig config = service_config(svc::PolicyKind::kFifo);
  svc::FabricService service(config);
  const svc::ServiceReport report = service.run(bursty_jobs(3));
  const ServiceBlame blame = build_service_blame(
      report, config.planner, config.fabric_wavelengths);
  ASSERT_GT(blame.tenants.size(), 1u);
  BlameTotals from_tenants;
  double jct = 0.0;
  for (const TenantBlame& tenant : blame.tenants) {
    from_tenants += tenant.totals;
    jct += tenant.jct.count();
  }
  EXPECT_NEAR(jct, blame.total_jct.count(), 1e-9 * jct);
  for (const BlameCategory category : all_blame_categories()) {
    EXPECT_NEAR(from_tenants[category], blame.categories[category],
                1e-9 * blame.total_jct.count() + 1e-12)
        << to_string(category);
  }
  // Tenant order is the deterministic part of the JSON surface.
  for (std::size_t i = 1; i < blame.tenants.size(); ++i) {
    EXPECT_LT(blame.tenants[i - 1].tenant, blame.tenants[i].tenant);
  }
}

TEST(SvcBlame, ReplayedEventLogKeepsTheIdentity) {
  svc::ServiceConfig config = service_config(svc::PolicyKind::kBackfill);
  config.telemetry.events = true;
  svc::FabricService service(config);
  const svc::ServiceReport live = service.run(bursty_jobs(5));
  ASSERT_NE(service.event_log(), nullptr);

  std::istringstream round_trip(service.event_log()->to_jsonl());
  const obs::EventLog log = obs::EventLog::read_jsonl(round_trip);
  const svc::ReplaySummary replay = svc::replay_events(log);

  const ServiceBlame from_replay = build_service_blame(
      replay.report, config.planner, config.fabric_wavelengths);
  const verify::CheckResult check = verify::check_blame_identity(from_replay);
  EXPECT_TRUE(check.ok()) << check.summary();

  // The wait split depends only on the grant/release timeline, which the
  // log reproduces exactly — so it matches the live attribution.
  const ServiceBlame from_live = build_service_blame(
      live, config.planner, config.fabric_wavelengths);
  EXPECT_NEAR(from_replay.categories[BlameCategory::kQueueing],
              from_live.categories[BlameCategory::kQueueing],
              1e-9 * from_live.total_jct.count() + 1e-12);
  EXPECT_NEAR(from_replay.categories[BlameCategory::kFragmentation],
              from_live.categories[BlameCategory::kFragmentation],
              1e-9 * from_live.total_jct.count() + 1e-12);
  EXPECT_NEAR(from_replay.total_jct.count(), from_live.total_jct.count(),
              1e-9 * from_live.total_jct.count() + 1e-12);
}

// A lease held for no time (a replayed log can carry grant == complete)
// holds no lanes afterwards: the next job's wait is queueing, not
// fragmentation behind a slice nobody holds.
TEST(SvcBlame, ZeroLengthLeaseHoldsNoLanes) {
  const auto record = [](std::uint64_t id, std::uint32_t w_lo,
                         double grant, double completion) {
    svc::JobRecord r;
    r.job.id = id;
    r.job.width = 4;
    r.lease = net::slice_lease(w_lo, 4, 0);
    r.grant = Seconds(grant);
    r.completion = Seconds(completion);
    return r;
  };
  svc::ServiceReport report;
  report.records = {record(1, 2, 1.0, 1.0), record(2, 0, 2.0, 3.0)};
  const ServiceBlame blame =
      build_service_blame(report, plan::PlannerOptions{}, 8);
  EXPECT_EQ(blame.categories[BlameCategory::kFragmentation], 0.0);
  EXPECT_EQ(blame.categories[BlameCategory::kQueueing], 3.0);
  EXPECT_TRUE(verify::check_blame_identity(blame).ok());
}

TEST(SvcBlame, JsonIsByteDeterministicAndServiceKind) {
  const svc::ServiceConfig config = service_config(svc::PolicyKind::kFifo);
  const std::vector<svc::Job> jobs = bursty_jobs(9);
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    svc::FabricService service(config);
    const ServiceBlame blame = build_service_blame(
        service.run(jobs), config.planner, config.fabric_wavelengths);
    std::ostringstream stream;
    write_service_blame_json(blame, stream);
    *out = stream.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  std::istringstream in(first);
  const ParsedBlame parsed = read_blame_json(in);
  EXPECT_EQ(parsed.kind, "service");
  EXPECT_EQ(parsed.source, "fifo");
  EXPECT_FALSE(parsed.tenants.empty());
  EXPECT_EQ(parsed.categories.size(), kNumBlameCategories);
  EXPECT_NEAR(parsed.attributed_time, parsed.total_time,
              1e-9 * parsed.total_time);
}

TEST(SvcBlame, DifferLocalizesPolicyChangesToTenants) {
  const std::vector<svc::Job> jobs = bursty_jobs(13);
  const auto to_parsed = [&](svc::PolicyKind policy) {
    const svc::ServiceConfig config = service_config(policy);
    svc::FabricService service(config);
    const ServiceBlame blame = build_service_blame(
        service.run(jobs), config.planner, config.fabric_wavelengths);
    std::ostringstream stream;
    write_service_blame_json(blame, stream);
    std::istringstream in(stream.str());
    return read_blame_json(in);
  };

  const ParsedBlame fifo = to_parsed(svc::PolicyKind::kFifo);
  const BlameDiff same = diff_blame(fifo, to_parsed(svc::PolicyKind::kFifo));
  EXPECT_TRUE(same.clean()) << same.to_string();

  // A different admission order moves per-tenant JCT; when anything moves
  // beyond threshold the differ must say where.
  const BlameDiff diff =
      diff_blame(fifo, to_parsed(svc::PolicyKind::kPriority));
  if (!diff.clean()) {
    EXPECT_FALSE(diff.categories.empty() && diff.tenants.empty() &&
                 diff.lanes.empty())
        << diff.to_string();
  }
}

}  // namespace
}  // namespace wrht::diag
