// Service telemetry conformance tests: off-by-default is byte-identical
// and costs nothing, the svc-events-1 log is a deterministic function of
// (config, seed) — pinned over a 2-seed x 2-policy grid — event-log
// replay reproduces the live report exactly, Chrome-trace lanes split by
// tenant, retunes fire on lane handoffs, and SLO burn is tracked per
// tenant.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"

namespace wrht::svc {
namespace {

std::vector<Job> bursty_jobs(std::uint64_t seed, std::uint32_t num_jobs = 24) {
  WorkloadConfig workload;
  workload.num_jobs = num_jobs;
  workload.num_nodes = 8;
  workload.fabric_wavelengths = 8;
  workload.mean_interarrival = Seconds(0.02);
  workload.burstiness = 0.4;
  workload.seed = seed;
  return generate_workload(workload);
}

ServiceConfig telemetry_config(PolicyKind policy, std::uint64_t seed) {
  ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = policy;
  config.telemetry.metrics = true;
  config.telemetry.events = true;
  config.telemetry.trace = true;
  config.telemetry.seed = seed;
  return config;
}

TEST(SvcTelemetry, DisabledTelemetryLeavesServiceUntouched) {
  const std::vector<Job> jobs = bursty_jobs(7);

  ServiceConfig config;
  config.fabric_wavelengths = 8;
  config.policy = PolicyKind::kBackfill;
  FabricService off(config);
  const ServiceReport report_off = off.run(jobs);
  EXPECT_EQ(off.metrics(), nullptr);
  EXPECT_EQ(off.event_log(), nullptr);
  EXPECT_EQ(off.trace(), nullptr);

  FabricService on(telemetry_config(PolicyKind::kBackfill, 7));
  const ServiceReport report_on = on.run(jobs);

  // The enabled run must not perturb a single double of the report.
  ASSERT_EQ(report_off.records.size(), report_on.records.size());
  EXPECT_EQ(report_off.makespan.count(), report_on.makespan.count());
  EXPECT_EQ(report_off.utilization, report_on.utilization);
  EXPECT_EQ(report_off.p50_jct.count(), report_on.p50_jct.count());
  EXPECT_EQ(report_off.p99_jct.count(), report_on.p99_jct.count());
  EXPECT_EQ(report_off.mean_queue_wait.count(),
            report_on.mean_queue_wait.count());
  for (std::size_t i = 0; i < report_off.records.size(); ++i) {
    EXPECT_EQ(report_off.records[i].job.id, report_on.records[i].job.id);
    EXPECT_EQ(report_off.records[i].grant.count(),
              report_on.records[i].grant.count());
    EXPECT_EQ(report_off.records[i].completion.count(),
              report_on.records[i].completion.count());
    EXPECT_EQ(report_off.records[i].lease.w_lo,
              report_on.records[i].lease.w_lo);
  }
  // And the report itself renders identically (no new columns sneak in).
  EXPECT_EQ(report_off.to_string(), report_on.to_string());
}

TEST(SvcTelemetry, EventLogIsDeterministicAcrossSeedAndPolicyGrid) {
  // The replay-determinism grid: 2 seeds x 2 policies, each run twice;
  // the two JSONL serializations must be byte-identical.
  for (const std::uint64_t seed : {11ull, 2023ull}) {
    for (const PolicyKind policy :
         {PolicyKind::kFifo, PolicyKind::kWeightedFair}) {
      const std::vector<Job> jobs = bursty_jobs(seed);
      const ServiceConfig config = telemetry_config(policy, seed);

      FabricService first(config);
      (void)first.run(jobs);
      FabricService second(config);
      (void)second.run(jobs);

      ASSERT_NE(first.event_log(), nullptr);
      ASSERT_NE(second.event_log(), nullptr);
      EXPECT_EQ(first.event_log()->to_jsonl(), second.event_log()->to_jsonl())
          << "seed=" << seed << " policy=" << to_string(policy);
      EXPECT_GT(first.event_log()->size(), 0u);
    }
  }
}

TEST(SvcTelemetry, EventLogRecordsEveryTransitionWithLease) {
  const std::vector<Job> jobs = bursty_jobs(3);
  FabricService service(telemetry_config(PolicyKind::kFifo, 3));
  const ServiceReport report = service.run(jobs);

  const obs::EventLog& log = *service.event_log();
  EXPECT_EQ(log.context().policy, "fifo");
  EXPECT_EQ(log.context().fabric_wavelengths, 8u);
  EXPECT_EQ(log.context().seed, 3u);

  std::map<obs::ServiceEvent::Kind, std::size_t> counts;
  for (const obs::ServiceEvent& e : log.events()) ++counts[e.kind];
  EXPECT_EQ(counts[obs::ServiceEvent::Kind::kSubmit], jobs.size());
  EXPECT_EQ(counts[obs::ServiceEvent::Kind::kAdmit], jobs.size());
  EXPECT_EQ(counts[obs::ServiceEvent::Kind::kGrant], jobs.size());
  EXPECT_EQ(counts[obs::ServiceEvent::Kind::kStart], jobs.size());
  EXPECT_EQ(counts[obs::ServiceEvent::Kind::kComplete], report.records.size());

  // Grants and completes carry the lease; the slice is non-empty and
  // inside the fabric.
  for (const obs::ServiceEvent& e : log.events()) {
    if (e.kind == obs::ServiceEvent::Kind::kGrant ||
        e.kind == obs::ServiceEvent::Kind::kComplete) {
      EXPECT_LT(e.w_lo, e.w_hi);
      EXPECT_LE(e.w_hi, 8u);
    }
  }
}

TEST(SvcTelemetry, ReplayReproducesTheLiveReportExactly) {
  const std::vector<Job> jobs = bursty_jobs(42);
  FabricService service(telemetry_config(PolicyKind::kBackfill, 42));
  const ServiceReport live = service.run(jobs);

  // Through the serialized text, as wrht_analyze --service would read it.
  std::istringstream in(service.event_log()->to_jsonl());
  const ReplaySummary replay =
      replay_events(obs::EventLog::read_jsonl(in));

  ASSERT_EQ(replay.report.records.size(), live.records.size());
  EXPECT_EQ(replay.report.policy, live.policy);
  EXPECT_EQ(replay.report.makespan.count(), live.makespan.count());
  EXPECT_EQ(replay.report.utilization, live.utilization);
  EXPECT_EQ(replay.report.p50_jct.count(), live.p50_jct.count());
  EXPECT_EQ(replay.report.p99_jct.count(), live.p99_jct.count());
  EXPECT_EQ(replay.report.mean_queue_wait.count(),
            live.mean_queue_wait.count());
  ASSERT_EQ(replay.report.tenants.size(), live.tenants.size());
  for (std::size_t i = 0; i < live.tenants.size(); ++i) {
    EXPECT_EQ(replay.report.tenants[i].tenant, live.tenants[i].tenant);
    EXPECT_EQ(replay.report.tenants[i].jobs, live.tenants[i].jobs);
    EXPECT_EQ(replay.report.tenants[i].wavelength_seconds,
              live.tenants[i].wavelength_seconds);
    EXPECT_EQ(replay.report.tenants[i].p99_jct.count(),
              live.tenants[i].p99_jct.count());
  }
  EXPECT_GT(replay.queue_depth.size(), 0u);
  EXPECT_FALSE(replay.verdict.empty());
  EXPECT_NE(replay.to_string().find("verdict"), std::string::npos);
}

TEST(SvcTelemetry, ReplayRejectsInconsistentLogs) {
  obs::EventLog log;
  log.set_context(obs::EventLog::Context{8, "fifo", 1});
  log.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kComplete,
                               Seconds(1.0), 1, 0, 0, 4, "release"});
  EXPECT_THROW((void)replay_events(log), Error);  // complete without grant

  obs::EventLog unfinished;
  unfinished.set_context(obs::EventLog::Context{8, "fifo", 1});
  unfinished.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kSubmit,
                                      Seconds(0.0), 1, 0, 0, 0, "arrival"});
  EXPECT_THROW((void)replay_events(unfinished), Error);  // never completes

  // Two leases over shared lanes cannot both be live: the replay rejects
  // the log at the second grant instead of summing both into the
  // utilization (1.0 here, on a fabric half of which sat idle).
  using Kind = obs::ServiceEvent::Kind;
  obs::EventLog overlapping;
  overlapping.set_context(obs::EventLog::Context{8, "fifo", 1});
  overlapping.record(obs::ServiceEvent{Kind::kSubmit, Seconds(0.0), 1, 0, 0,
                                       0, "arrival"});
  overlapping.record(obs::ServiceEvent{Kind::kSubmit, Seconds(0.0), 2, 1, 0,
                                       0, "arrival"});
  overlapping.record(obs::ServiceEvent{Kind::kAdmit, Seconds(0.0), 1, 0, 0,
                                       0, "fifo"});
  overlapping.record(obs::ServiceEvent{Kind::kGrant, Seconds(0.0), 1, 0, 0,
                                       4, "alg=wrht"});
  overlapping.record(obs::ServiceEvent{Kind::kAdmit, Seconds(0.0), 2, 1, 0,
                                       0, "fifo"});
  overlapping.record(obs::ServiceEvent{Kind::kGrant, Seconds(0.0), 2, 1, 2,
                                       6, "alg=wrht"});
  overlapping.record(obs::ServiceEvent{Kind::kComplete, Seconds(1.0), 1, 0,
                                       0, 4, "release"});
  overlapping.record(obs::ServiceEvent{Kind::kComplete, Seconds(1.0), 2, 1,
                                       2, 6, "release"});
  try {
    (void)replay_events(overlapping);
    FAIL() << "replay accepted overlapping grants";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("busy lanes (event 6, line 7)"),
              std::string::npos)
        << e.what();
  }

  // A second submit of a job still queued would leave a phantom job in the
  // queue-depth signal for the rest of the run, though every job completes.
  obs::EventLog resubmitted;
  resubmitted.set_context(obs::EventLog::Context{8, "fifo", 1});
  resubmitted.record(obs::ServiceEvent{Kind::kSubmit, Seconds(0.0), 1, 0, 0,
                                       0, "arrival"});
  resubmitted.record(obs::ServiceEvent{Kind::kSubmit, Seconds(0.5), 1, 0, 0,
                                       0, "arrival"});
  resubmitted.record(obs::ServiceEvent{Kind::kAdmit, Seconds(1.0), 1, 0, 0,
                                       0, "fifo"});
  resubmitted.record(obs::ServiceEvent{Kind::kGrant, Seconds(1.0), 1, 0, 0,
                                       4, "alg=wrht"});
  resubmitted.record(obs::ServiceEvent{Kind::kComplete, Seconds(2.0), 1, 0,
                                       0, 4, "release"});
  try {
    (void)replay_events(resubmitted);
    FAIL() << "replay accepted a second submit of a pending job";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "second submit of pending job 1 (event 2, line 3)"),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcTelemetry, ReplayKeepsOneSamplePerEvent) {
  // More events than a default obs::TimeSeries ring holds (4096): the
  // replayed signals keep every event's sample, from the first event on.
  using Kind = obs::ServiceEvent::Kind;
  obs::EventLog log;
  log.set_context(obs::EventLog::Context{8, "fifo", 1});
  constexpr std::uint64_t kJobs = 1100;
  for (std::uint64_t job = 0; job < kJobs; ++job) {
    const Seconds arrival(0.25 + static_cast<double>(job));
    log.record(obs::ServiceEvent{Kind::kSubmit, arrival, job, 0, 0, 0,
                                 "arrival"});
    log.record(obs::ServiceEvent{Kind::kAdmit, arrival, job, 0, 0, 0,
                                 "fifo"});
    log.record(obs::ServiceEvent{Kind::kGrant, arrival, job, 0, 0, 2,
                                 "alg=wrht"});
    log.record(obs::ServiceEvent{Kind::kComplete, arrival + Seconds(0.5), job,
                                 0, 0, 2, "release"});
  }
  ASSERT_GT(log.size(), 4096u);
  const ReplaySummary replay = replay_events(log);
  ASSERT_EQ(replay.queue_depth.size(), log.size());
  ASSERT_EQ(replay.wavelengths_in_use.size(), log.size());
  EXPECT_EQ(replay.queue_depth[0].time.count(), 0.25);
  EXPECT_EQ(replay.queue_depth[0].value, 1.0);
  EXPECT_EQ(replay.wavelengths_in_use[2].value, 2.0);
  const std::size_t last = log.size() - 1;
  EXPECT_EQ(replay.queue_depth[last].time.count(), 1099.75);
  EXPECT_EQ(replay.wavelengths_in_use[last].value, 0.0);
}

TEST(SvcTelemetry, TraceLanesSplitByTenantWithCounterTracks) {
  const std::vector<Job> jobs = bursty_jobs(5);
  FabricService service(telemetry_config(PolicyKind::kFifo, 5));
  const ServiceReport report = service.run(jobs);

  const obs::ChromeTraceSink& trace = *service.trace();
  EXPECT_EQ(trace.size(), report.records.size());  // one span per job
  EXPECT_GT(trace.counter_count(), 0u);

  std::ostringstream out;
  trace.write(out);
  const std::string json = out.str();
  // Tenant lanes are named, and all three counter tracks appear.
  EXPECT_NE(json.find("tenant 0"), std::string::npos);
  EXPECT_NE(json.find("queue depth"), std::string::npos);
  EXPECT_NE(json.find("wavelengths in use"), std::string::npos);
  EXPECT_NE(json.find("fragmentation"), std::string::npos);
}

TEST(SvcTelemetry, MetricsSampleOnTheVirtualTimeCadence) {
  const std::vector<Job> jobs = bursty_jobs(9);
  FabricService service(telemetry_config(PolicyKind::kFifo, 9));
  const ServiceReport report = service.run(jobs);

  const obs::MetricsRegistry& metrics = *service.metrics();
  const auto depth = metrics.find("svc.queue_depth");
  ASSERT_TRUE(depth.has_value());
  const obs::TimeSeries& series = metrics.series(*depth);
  // The sampler covers [0, makespan] at the 10 ms cadence: at least
  // makespan/cadence points (ring capacity permitting).
  EXPECT_GE(series.size(),
            static_cast<std::size_t>(report.makespan.count() / 0.01));
  // Samples are stamped on the virtual clock, monotonically.
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].time.count(), series[i - 1].time.count());
  }
  // Counter totals agree with the run.
  EXPECT_DOUBLE_EQ(metrics.value(*metrics.find("svc.submitted")),
                   static_cast<double>(jobs.size()));
  EXPECT_DOUBLE_EQ(metrics.value(*metrics.find("svc.completed")),
                   static_cast<double>(report.records.size()));
  // Fragmentation gauge lives in (0, 1].
  const auto frag = metrics.find("svc.fragmentation");
  ASSERT_TRUE(frag.has_value());
  EXPECT_GT(metrics.value(*frag), 0.0);
  EXPECT_LE(metrics.value(*frag), 1.0);
}

TEST(SvcTelemetry, RetunesFireOnLaneHandoffsBetweenTenants) {
  // A contended narrow fabric forces slices to change tenant hands.
  const std::vector<Job> jobs = bursty_jobs(13, 32);
  FabricService service(telemetry_config(PolicyKind::kBackfill, 13));
  (void)service.run(jobs);

  const obs::MetricsRegistry& metrics = *service.metrics();
  EXPECT_GT(metrics.value(*metrics.find("svc.retuned_lanes")), 0.0);
  bool saw_retune = false;
  for (const obs::ServiceEvent& e : service.event_log()->events()) {
    if (e.kind != obs::ServiceEvent::Kind::kRetune) continue;
    saw_retune = true;
    EXPECT_NE(e.cause.find("lanes="), std::string::npos);
    EXPECT_LT(e.w_lo, e.w_hi);
  }
  EXPECT_TRUE(saw_retune);
}

TEST(SvcTelemetry, SloBurnTracksMissedTargets) {
  const std::vector<Job> jobs = bursty_jobs(21, 32);
  ServiceConfig config = telemetry_config(PolicyKind::kFifo, 21);
  // An impossible target burns at 100%; a generous one never burns.
  config.slo_targets[0] = Seconds(1e-9);
  config.slo_targets[1] = Seconds(1e9);
  FabricService service(config);
  const ServiceReport report = service.run(jobs);

  const TenantStats* strict = nullptr;
  const TenantStats* loose = nullptr;
  for (const TenantStats& t : report.tenants) {
    if (t.tenant == 0) strict = &t;
    if (t.tenant == 1) loose = &t;
  }
  ASSERT_NE(strict, nullptr);
  ASSERT_NE(loose, nullptr);
  EXPECT_EQ(strict->slo_violations, strict->jobs);
  EXPECT_DOUBLE_EQ(strict->slo_burn, 1.0);
  EXPECT_EQ(loose->slo_violations, 0u);
  EXPECT_DOUBLE_EQ(loose->slo_burn, 0.0);

  // The rolling gauges saw the same story.
  const obs::MetricsRegistry& metrics = *service.metrics();
  EXPECT_DOUBLE_EQ(metrics.value(*metrics.find("svc.tenant0.slo_burn")), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value(*metrics.find("svc.tenant1.slo_burn")), 0.0);

  const std::string slo = slo_report(report);
  EXPECT_NE(slo.find("burning"), std::string::npos);
  EXPECT_NE(slo.find("SLO attainment"), std::string::npos);

  // Tenants without targets keep zeroed SLO fields.
  for (const TenantStats& t : report.tenants) {
    if (t.tenant > 1) {
      EXPECT_EQ(t.slo_target.count(), 0.0);
      EXPECT_EQ(t.slo_violations, 0u);
    }
  }
}

TEST(SvcTelemetry, LargestFreeTracksContiguousSlices) {
  WavelengthAllocator allocator(16);
  EXPECT_EQ(allocator.largest_free(), 16u);
  EXPECT_EQ(allocator.fragmentation(), 1.0);  // empty fabric: one slice
  const auto a = allocator.allocate(4);   // [0,4)
  const auto b = allocator.allocate(4);   // [4,8)
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(allocator.largest_free(), 8u);
  allocator.release(*a, 4);               // free: [0,4) + [8,16)
  EXPECT_EQ(allocator.largest_free(), 8u);
  EXPECT_EQ(allocator.free_width(), 12u);
  EXPECT_DOUBLE_EQ(allocator.fragmentation(), 8.0 / 12.0);
  allocator.release(*b, 4);               // coalesces back to [0,16)
  EXPECT_EQ(allocator.largest_free(), 16u);

  // claim() takes the given slice, as a replayed grant does.
  allocator.claim(6, 4);                  // middle: free [0,6) + [10,16)
  EXPECT_EQ(allocator.free_width(), 12u);
  EXPECT_EQ(allocator.largest_free(), 6u);
  EXPECT_DOUBLE_EQ(allocator.fragmentation(), 0.5);
  EXPECT_THROW(allocator.claim(5, 2), Error);   // lane 6 is busy
  EXPECT_THROW(allocator.claim(8, 4), Error);   // lanes 8-9 are busy
  EXPECT_THROW(allocator.claim(14, 4), Error);  // past the fabric
  EXPECT_THROW(allocator.claim(3, 0), Error);   // empty slice
  EXPECT_EQ(allocator.free_width(), 12u);       // refusals change nothing
  allocator.claim(0, 2);                  // left edge: free [2,6) + [10,16)
  allocator.claim(12, 4);                 // right edge: free [2,6) + [10,12)
  EXPECT_EQ(allocator.largest_free(), 4u);
  EXPECT_DOUBLE_EQ(allocator.fragmentation(), 4.0 / 6.0);
  allocator.claim(2, 4);                  // whole intervals
  allocator.claim(10, 2);
  EXPECT_EQ(allocator.free_width(), 0u);
  EXPECT_EQ(allocator.fragmentation(), 1.0);  // full fabric, by convention
  EXPECT_EQ(allocator.largest_free(), 0u);
  allocator.release(0, 16);               // claims coalesce like grants
  EXPECT_EQ(allocator.largest_free(), 16u);
}

}  // namespace
}  // namespace wrht::svc
