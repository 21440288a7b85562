// Tests for the host-side profiling subsystem (wrht::prof): the
// off-by-default contract, timer accounting, merge determinism across
// thread counts, the nesting invariant, the PerfReport JSON golden, and
// the baseline comparison (including the injected-slowdown regression
// path wrht_perf relies on).
#include "wrht/prof/prof.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/prof/baseline.hpp"
#include "wrht/prof/perf_report.hpp"

namespace wrht {
namespace {

/// Burns a little deterministic work so a timed phase has nonzero width.
void spin(int iters = 1000) {
  volatile int sink = 0;
  for (int i = 0; i < iters; ++i) sink = sink + i;
}

TEST(Prof, OffByDefaultNothingIsCurrentAndTimersRecordNothing) {
  ASSERT_EQ(prof::ProfRegistry::current(), nullptr);
  {
    // Timers outside any ScopedProfiling must be no-ops.
    const prof::ScopedTimer timer("phase.unwatched");
    spin();
  }
  prof::ProfRegistry registry;
  EXPECT_TRUE(registry.phase_totals().empty());
}

TEST(Prof, ScopedProfilingInstallsAndRestores) {
  prof::ProfRegistry outer;
  prof::ProfRegistry inner;
  ASSERT_EQ(prof::ProfRegistry::current(), nullptr);
  {
    const prof::ScopedProfiling a(outer);
    EXPECT_EQ(prof::ProfRegistry::current(), &outer);
    {
      const prof::ScopedProfiling b(inner);
      EXPECT_EQ(prof::ProfRegistry::current(), &inner);
    }
    EXPECT_EQ(prof::ProfRegistry::current(), &outer);
  }
  EXPECT_EQ(prof::ProfRegistry::current(), nullptr);
}

TEST(Prof, TimersAccumulateExactCallCounts) {
  prof::ProfRegistry registry;
  {
    const prof::ScopedProfiling on(registry);
    for (int i = 0; i < 17; ++i) {
      const prof::ScopedTimer timer("phase.a");
      spin();
    }
    for (int i = 0; i < 5; ++i) {
      const prof::ScopedTimer timer("phase.b");
      spin();
    }
  }
  const auto totals = registry.phase_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.at("phase.a").calls, 17u);
  EXPECT_EQ(totals.at("phase.b").calls, 5u);
  EXPECT_GE(totals.at("phase.a").seconds, 0.0);
}

// The merged totals are a function of the work done, not of how it was
// spread across threads: 60 calls of each phase give the same call counts
// whether 1, 2 or 6 threads ran them.
TEST(Prof, MergedTotalsAreDeterministicAcrossThreadCounts) {
  constexpr int kTotalCalls = 60;
  for (const int threads : {1, 2, 6}) {
    prof::ProfRegistry registry;
    {
      const prof::ScopedProfiling on(registry);
      std::vector<std::thread> pool;
      const int per_thread = kTotalCalls / threads;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([per_thread] {
          for (int i = 0; i < per_thread; ++i) {
            const prof::ScopedTimer a("phase.shared");
            const prof::ScopedTimer b("phase.nested");
            spin();
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    const auto totals = registry.phase_totals();
    ASSERT_EQ(totals.size(), 2u) << threads << " threads";
    EXPECT_EQ(totals.at("phase.shared").calls,
              static_cast<std::uint64_t>(kTotalCalls))
        << threads << " threads";
    EXPECT_EQ(totals.at("phase.nested").calls,
              static_cast<std::uint64_t>(kTotalCalls))
        << threads << " threads";
  }
}

// Nested timers are inclusive: a child phase that runs entirely inside its
// parent can never accumulate more wall time than the parent.
TEST(Prof, NestingInvariantChildNeverExceedsParent) {
  prof::ProfRegistry registry;
  {
    const prof::ScopedProfiling on(registry);
    for (int i = 0; i < 50; ++i) {
      const prof::ScopedTimer parent("phase.parent");
      spin();
      {
        const prof::ScopedTimer child("phase.child");
        spin();
      }
      spin();
    }
  }
  const auto totals = registry.phase_totals();
  EXPECT_EQ(totals.at("phase.parent").calls, 50u);
  EXPECT_EQ(totals.at("phase.child").calls, 50u);
  EXPECT_LE(totals.at("phase.child").seconds,
            totals.at("phase.parent").seconds);
}

TEST(Prof, PeakRssIsReportedOnThisPlatform) {
  // Linux exposes VmHWM; any live process has resident pages.
  EXPECT_GT(prof::peak_rss_bytes(), 0u);
}

// The JSON emitter is deterministic: fixed key order, name-sorted metric
// map, %.9g numbers. A fixed report must serialize byte-identically.
TEST(PerfReport, GoldenJsonIsByteStable) {
  prof::PerfReport report;
  report.name = "golden";
  report.repetitions = 3;
  report.threads = 2;
  report.wall_time_s = 1.5;
  report.thread_efficiency = 0.75;
  report.peak_rss_bytes = 1048576;
  report.add_metric("z.wall_s", 0.25, "s");
  report.add_metric("a.events_per_s", 2000000.0, "/s");
  report.phases["phase.a"] = prof::PhaseTotals{4, 0.125};

  std::ostringstream out;
  report.write_json(out);
  const std::string expected =
      "{\n"
      "  \"schema\": \"wrht-perf-1\",\n"
      "  \"name\": \"golden\",\n"
      "  \"repetitions\": 3,\n"
      "  \"threads\": 2,\n"
      "  \"wall_time_s\": 1.5,\n"
      "  \"thread_efficiency\": 0.75,\n"
      "  \"peak_rss_bytes\": 1048576,\n"
      "  \"metrics\": {\n"
      "    \"a.events_per_s\": {\"value\": 2000000, \"unit\": \"/s\"},\n"
      "    \"z.wall_s\": {\"value\": 0.25, \"unit\": \"s\"}\n"
      "  },\n"
      "  \"phases\": {\n"
      "    \"phase.a\": {\"calls\": 4, \"seconds\": 0.125}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(PerfReport, SampleMetricsAddMedianAndP90) {
  prof::PerfReport report;
  report.add_sample_metrics("m", {4.0, 1.0, 2.0, 3.0, 5.0}, "s");
  const prof::PerfMetric* median = report.find_metric("m.median");
  const prof::PerfMetric* p90 = report.find_metric("m.p90");
  ASSERT_NE(median, nullptr);
  ASSERT_NE(p90, nullptr);
  EXPECT_DOUBLE_EQ(median->value, 3.0);
  EXPECT_GE(p90->value, median->value);
  EXPECT_THROW(report.add_sample_metrics("empty", {}, "s"), Error);
}

TEST(PerfReport, CaptureComputesThreadEfficiencyFromWorkerPhases) {
  prof::ProfRegistry registry;
  {
    const prof::ScopedProfiling on(registry);
    const prof::ScopedTimer wall("sweep.worker.wall");
    const prof::ScopedTimer busy("sweep.worker.busy");
    spin(20000);
  }
  prof::PerfReport report;
  report.capture(registry);
  EXPECT_GT(report.thread_efficiency, 0.0);
  EXPECT_LE(report.thread_efficiency, 1.0);
  EXPECT_EQ(report.phases.count("sweep.worker.wall"), 1u);
}

TEST(Baseline, InfersDirectionFromNameAndUnit) {
  EXPECT_EQ(prof::infer_direction("sweep.wall_s.median", "s"),
            prof::Direction::kLowerIsBetter);
  EXPECT_EQ(prof::infer_direction("event_kernel.events_per_s.median", "/s"),
            prof::Direction::kHigherIsBetter);
}

TEST(Baseline, SaveLoadRoundTripsAndFreshReportPasses) {
  prof::PerfReport report;
  report.name = "roundtrip";
  report.add_metric("a.wall_s", 0.5, "s");
  report.add_metric("b.events_per_s", 1e6, "/s");

  const prof::Baseline baseline = prof::Baseline::from_report(report, 0.5);
  const std::string path =
      testing::TempDir() + "/wrht_prof_roundtrip.baseline";
  baseline.save(path);
  const prof::Baseline loaded = prof::Baseline::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.entries.size(), 2u);
  const prof::CompareReport compared = prof::compare(report, loaded);
  EXPECT_TRUE(compared.ok());
  for (const auto& r : compared.results) EXPECT_FALSE(r.regressed);
}

// The acceptance path: a measurement 2x slower than baseline (or at half
// the baseline throughput) must regress under a 0.5 drift threshold.
TEST(Baseline, InjectedTwoTimesSlowdownRegresses) {
  prof::PerfReport fast;
  fast.add_metric("suite.wall_s", 0.1, "s");
  fast.add_metric("suite.events_per_s", 1e6, "/s");
  const prof::Baseline baseline = prof::Baseline::from_report(fast, 0.5);

  prof::PerfReport slow;
  slow.add_metric("suite.wall_s", 0.2, "s");          // 2x slower
  slow.add_metric("suite.events_per_s", 0.5e6, "/s");  // half the rate
  const prof::CompareReport compared = prof::compare(slow, baseline);
  EXPECT_FALSE(compared.ok());
  for (const auto& r : compared.results) {
    EXPECT_TRUE(r.regressed) << r.metric;
  }
}

// Metrics present in the baseline but missing from the report are schema
// drift and must fail; metrics only in the report are additions and must
// not.
TEST(Baseline, SchemaDriftFailsAdditionsDoNot) {
  prof::PerfReport report;
  report.add_metric("kept.wall_s", 1.0, "s");
  report.add_metric("added.wall_s", 1.0, "s");

  prof::Baseline baseline;
  baseline.entries.push_back(
      prof::BaselineEntry{"kept.wall_s", 1.0, 0.5,
                          prof::Direction::kLowerIsBetter});
  baseline.entries.push_back(
      prof::BaselineEntry{"gone.wall_s", 1.0, 0.5,
                          prof::Direction::kLowerIsBetter});
  const prof::CompareReport compared = prof::compare(report, baseline);
  EXPECT_FALSE(compared.ok());
  bool saw_missing = false;
  for (const auto& r : compared.results) {
    if (r.metric == "gone.wall_s") {
      saw_missing = true;
      EXPECT_TRUE(r.missing);
    }
    if (r.metric == "kept.wall_s") {
      EXPECT_FALSE(r.regressed);
    }
  }
  EXPECT_TRUE(saw_missing);
}

TEST(Baseline, HigherIsBetterThresholdUsesReciprocalBound) {
  prof::PerfReport report;
  report.add_metric("rate.events_per_s", 1e6, "/s");
  // drift 3.0 on a throughput becomes 3/(1+3) = 0.75: the same 4x factor
  // that trips a wall-time metric trips the rate when it falls 75%.
  const prof::Baseline baseline = prof::Baseline::from_report(report, 3.0);
  ASSERT_EQ(baseline.entries.size(), 1u);
  EXPECT_EQ(baseline.entries[0].direction,
            prof::Direction::kHigherIsBetter);
  EXPECT_NEAR(baseline.entries[0].max_rel_drift, 0.75, 1e-12);

  prof::PerfReport at_quarter;
  at_quarter.add_metric("rate.events_per_s", 0.24e6, "/s");
  EXPECT_FALSE(prof::compare(at_quarter, baseline).ok());
  prof::PerfReport at_third;
  at_third.add_metric("rate.events_per_s", 0.34e6, "/s");
  EXPECT_TRUE(prof::compare(at_third, baseline).ok());
}

}  // namespace
}  // namespace wrht
