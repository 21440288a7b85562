// Pins the exact bytes of every JSON and JSONL artifact writer, and checks
// that none of them depends on the stream it writes into.
//
// The digest tests hash each writer's output over a fixed set of runs, one
// FNV-1a digest per writer, so a moved constant names the writer whose
// bytes changed:
//   * service: a 600-job bursty trace (8 ms mean gap, burstiness 0.5,
//     64 wavelengths, 64-node jobs) x seeds {1, 2} x every admission
//     policy, with full telemetry: the svc-events-1 log, the service
//     Chrome trace, wrht-metrics-1 and the service wrht-blame-1 report;
//   * engines: ring, wrht and btree at N=64 on optical-ring and
//     electrical-flow and at N=16 on electrical-packet, plus WRHT on an
//     8x8 optical-torus, every probe on: each RunReport (utilization and
//     counters attached), the one Chrome trace they share, and each run's
//     wrht-blame-1 report with its what-if list.
// A digest that has to change is an output change to explain, not a
// constant to refresh.
//
// The locale test writes every artifact through a stream imbued with a
// thousands-grouping, decimal-comma numpunct facet and through a classic
// one: the bytes must match, and both readers must accept what the
// grouping stream received. Every fixture carries integers of four or more
// digits, the only ones grouping shows on.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/diag/svc_blame.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/prof/perf_report.hpp"
#include "wrht/svc/policy.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/topo/torus.hpp"

namespace wrht {
namespace {

/// 64-bit FNV-1a over whole outputs, each prefixed by its length so no two
/// output sequences collide by concatenation.
class Digest {
 public:
  void add(std::string_view s) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(s.size() >> (8 * i)));
    }
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What `write` puts into a fresh classic-locale stream.
std::string written(const std::function<void(std::ostream&)>& write) {
  std::ostringstream out;
  write(out);
  return out.str();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void expect_digest(const char* writer, const Digest& digest,
                   std::uint64_t expected) {
  EXPECT_EQ(digest.value(), expected)
      << writer << " bytes moved: new digest " << hex(digest.value());
}

constexpr std::uint32_t kWavelengths = 64;

// ------------------------------------------------------------- service

TEST(ArtifactBytes, ServiceWritersAreUnchanged) {
  Digest events;
  Digest trace;
  Digest metrics;
  Digest blame;
  for (const std::uint64_t seed : {1u, 2u}) {
    svc::WorkloadConfig workload;
    workload.num_jobs = 600;
    workload.num_nodes = 64;
    workload.fabric_wavelengths = kWavelengths;
    workload.mean_interarrival = Seconds(0.008);
    workload.burstiness = 0.5;
    workload.seed = seed;
    const std::vector<svc::Job> jobs = svc::generate_workload(workload);
    for (const svc::PolicyKind policy : svc::all_policies()) {
      svc::ServiceConfig config;
      config.fabric_wavelengths = kWavelengths;
      config.policy = policy;
      config.telemetry.metrics = true;
      config.telemetry.events = true;
      config.telemetry.trace = true;
      config.telemetry.seed = seed;
      svc::FabricService service(config);
      const svc::ServiceReport report = service.run(jobs);
      ASSERT_EQ(report.records.size(), jobs.size());
      events.add(written(
          [&](std::ostream& out) { service.event_log()->write_jsonl(out); }));
      trace.add(
          written([&](std::ostream& out) { service.trace()->write(out); }));
      metrics.add(written(
          [&](std::ostream& out) { service.metrics()->write_json(out); }));
      const diag::ServiceBlame attributed = diag::build_service_blame(
          report, config.planner, config.fabric_wavelengths);
      blame.add(written([&](std::ostream& out) {
        diag::write_service_blame_json(attributed, out);
      }));
    }
  }
  expect_digest("EventLog::write_jsonl", events, 0xa40f054853bef5a0ULL);
  expect_digest("service ChromeTraceSink::write", trace,
                0xca2ec6e300eedfc7ULL);
  expect_digest("MetricsRegistry::write_json", metrics,
                0xe921dc2d37a40220ULL);
  expect_digest("write_service_blame_json", blame, 0x4b67068986e7e4a7ULL);
}

// ------------------------------------------------------------- engines

/// The what-if list wrht_analyze writes beside a run's blame report.
std::vector<std::pair<std::string, double>> what_if(
    const obs::TransferLog& log) {
  std::vector<std::pair<std::string, double>> out;
  for (const diag::BlameCategory category :
       {diag::BlameCategory::kReconfiguration,
        diag::BlameCategory::kConversion, diag::BlameCategory::kTransmission,
        diag::BlameCategory::kStragglerWait}) {
    out.emplace_back("zero_" + diag::to_string(category),
                     diag::what_if_zero(log, category).count());
  }
  out.emplace_back("policy_on_retune", diag::what_if_on_retune(log).count());
  return out;
}

TEST(ArtifactBytes, EngineWritersAreUnchanged) {
  core::register_wrht_algorithm();
  net::register_builtin_backends();
  std::vector<std::pair<std::string, coll::Schedule>> runs;
  for (const char* algorithm : {"ring", "wrht", "btree"}) {
    for (const auto& [backend, nodes] :
         {std::pair<const char*, std::uint32_t>{"optical-ring", 64},
          {"electrical-flow", 64},
          {"electrical-packet", 16}}) {
      coll::AllreduceParams params;
      params.num_nodes = nodes;
      params.elements = nodes == 16 ? 1u << 12 : 1u << 20;
      params.wavelengths = kWavelengths;
      runs.emplace_back(backend,
                        coll::Registry::instance().build(algorithm, params));
    }
  }
  runs.emplace_back(
      "optical-torus",
      core::torus_wrht_allreduce(
          topo::Torus(8, 8), 1u << 20,
          core::WrhtOptions{core::plan_wrht(8, kWavelengths).group_size,
                            kWavelengths}));

  obs::ChromeTraceSink trace("artifact bytes");
  obs::Counters counters;
  Digest reports;
  Digest blames;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [backend, schedule] = runs[i];
    net::BackendConfig config;
    config.num_nodes = schedule.num_nodes();
    config.wavelengths = kWavelengths;
    config.validate_node_capacity = false;
    config.rwa_threads = 1;
    obs::OccupancySampler occupancy;
    obs::TransferLog log;
    const obs::Probe probe{&trace, &counters, static_cast<std::uint32_t>(i),
                           &occupancy, &log};
    RunReport report = net::BackendRegistry::instance()
                           .create(backend, config)
                           ->execute(schedule, probe);
    (void)obs::attach_utilization(report, occupancy);
    report.add_counters(counters);
    reports.add(written([&](std::ostream& out) { report.write_json(out); }));
    const diag::BlameReport blame = diag::build_blame(log);
    blames.add(written([&](std::ostream& out) {
      diag::write_blame_json(blame, what_if(log), out);
    }));
  }
  Digest shared;
  shared.add(written([&](std::ostream& out) { trace.write(out); }));
  expect_digest("RunReport::write_json", reports, 0xf752a8f0d6052bebULL);
  expect_digest("engine ChromeTraceSink::write", shared,
                0x2ccf5932698a0b24ULL);
  expect_digest("write_blame_json", blames, 0x684e292fd6dece6bULL);
}

// ------------------------------------------------------------- locale

/// Groups every integer in threes with ',' and writes ',' as the decimal
/// point: what a formatted `<<` of 1234567 or 0.5 would show under a
/// European locale, with no locale installed.
class Grouping final : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

/// Writes through a classic stream and a grouping one; expects equal bytes
/// and returns what the grouping stream received.
std::string same_under_grouping(
    const char* writer, const std::function<void(std::ostream&)>& write) {
  std::ostringstream classic;
  classic.imbue(std::locale::classic());
  write(classic);
  std::ostringstream grouped;
  grouped.imbue(std::locale(std::locale::classic(), new Grouping));
  write(grouped);
  EXPECT_EQ(grouped.str(), classic.str()) << writer;
  return grouped.str();
}

TEST(ArtifactBytes, WritersIgnoreTheStreamLocale) {
  obs::EventLog log;
  log.set_context({1024, "fifo", 123456789});
  log.record({obs::ServiceEvent::Kind::kSubmit, Seconds{0.5}, 1234567, 1234,
              0, 0, "arrival"});
  log.record({obs::ServiceEvent::Kind::kGrant, Seconds{1.25}, 1234567, 1234,
              1000, 2048, "fits"});
  const std::string jsonl = same_under_grouping(
      "EventLog::write_jsonl",
      [&](std::ostream& out) { log.write_jsonl(out); });
  EXPECT_NO_THROW({
    std::istringstream in(jsonl);
    const obs::EventLog read = obs::EventLog::read_jsonl(in);
    EXPECT_EQ(read.context(), log.context());
    EXPECT_EQ(read.events(), log.events());
  });

  obs::ChromeTraceSink trace("locale");
  trace.set_track_name(1234, "lane 1234");
  trace.span(obs::TraceSpan{"step", "step", Seconds{1.5}, Seconds{0.25},
                            1234, {{"rounds", "1234"}}, {{"flows", 12345.0}}});
  trace.counter(obs::CounterSample{"load", Seconds{2.0}, 1234567.0, 1234});
  for (int i = 0; i < 1001; ++i) {
    trace.add_flow({"grant", "grant", Seconds{0.0}, 1234, Seconds{1.0}, 1234});
  }
  (void)same_under_grouping("ChromeTraceSink::write",
                            [&](std::ostream& out) { trace.write(out); });

  obs::MetricsRegistry metrics(obs::MetricsRegistry::Options{1000});
  const obs::MetricsRegistry::Id jobs = metrics.counter("svc.jobs");
  const obs::MetricsRegistry::Id jct =
      metrics.histogram("svc.jct_s", obs::HistogramSpec{1.0, 1.001, 2048});
  for (int i = 0; i < 2500; ++i) {
    metrics.add(jobs, 1.0);
    metrics.observe(jct, 3.0);
    metrics.sample(Seconds{0.001 * i});
  }
  (void)same_under_grouping(
      "MetricsRegistry::write_json",
      [&](std::ostream& out) { metrics.write_json(out); });

  RunReport report;
  report.backend = "optical-ring";
  report.total_time = Seconds{1.5};
  report.steps = 1234;
  report.rounds = 5678;
  report.events_fired = 123456;
  report.resources_observed = 2048;
  report.step_reports.push_back(
      StepReport{"reduce", Seconds{0.0}, Seconds{1.5}, 1234, 2048, {}});
  report.counters["net.transfers"] = 1234567;
  (void)same_under_grouping("RunReport::write_json",
                            [&](std::ostream& out) { report.write_json(out); });

  diag::BlameReport blame;
  blame.backend = "optical-ring";
  blame.reconfig_policy = "every_round";
  blame.total_time = Seconds{1.5};
  blame.categories[diag::BlameCategory::kTransmission] = 1.5;
  blame.steps = 1234;
  blame.rounds = 5678;
  blame.transfers = 123456;
  blame.lanes.push_back({"cw1234", {}, Seconds{1.5}});
  blame.critical_path.push_back(
      {1234, "cw1234", 5678, Seconds{0.0}, Seconds{1.5}});
  const std::string run_blame = same_under_grouping(
      "write_blame_json", [&](std::ostream& out) {
        diag::write_blame_json(blame, {{"zero_transmission", 0.0}}, out);
      });
  EXPECT_NO_THROW({
    std::istringstream in(run_blame);
    EXPECT_EQ(diag::read_blame_json(in).lanes.at("cw1234"), 1.5);
  });

  diag::ServiceBlame service;
  service.policy = "fifo";
  service.fabric_wavelengths = 1024;
  service.jobs = 123456;
  service.total_jct = Seconds{2.5};
  service.tenants.push_back({1234, 5678, Seconds{2.5}, {}});
  const std::string service_blame = same_under_grouping(
      "write_service_blame_json", [&](std::ostream& out) {
        diag::write_service_blame_json(service, out);
      });
  EXPECT_NO_THROW({
    std::istringstream in(service_blame);
    EXPECT_EQ(diag::read_blame_json(in).tenants.at("tenant1234"), 2.5);
  });

  prof::PerfReport perf;
  perf.name = "locale";
  perf.repetitions = 1000;
  perf.threads = 1024;
  perf.peak_rss_bytes = 123456789;
  perf.phases["sweep.point"] = prof::PhaseTotals{12345, 0.5};
  (void)same_under_grouping("PerfReport::write_json",
                            [&](std::ostream& out) { perf.write_json(out); });
}

}  // namespace
}  // namespace wrht
