#include "wrht/obs/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht {
namespace {

coll::Schedule small_ring() { return coll::ring_allreduce(8, 800); }

// ------------------------------------------------ to_report() round trips

TEST(RunReport, OpticalRoundTrip) {
  const optics::RingNetwork net(8, optics::OpticalConfig{}.with_wavelengths(8));
  const optics::OpticalRunResult result = net.execute(small_ring());
  const RunReport report = result.to_report();

  EXPECT_EQ(report.backend, "optical-ring");
  EXPECT_EQ(report.total_time.count(), result.total_time.count());
  EXPECT_EQ(report.steps, result.steps);
  EXPECT_EQ(report.rounds, result.total_rounds);
  EXPECT_EQ(report.events_fired, result.events_fired);
  EXPECT_EQ(report.max_wavelengths_used(), result.max_wavelengths_used);
  ASSERT_EQ(report.step_reports.size(), result.step_costs.size());

  Seconds sum(0.0);
  for (std::size_t i = 0; i < report.step_reports.size(); ++i) {
    const StepReport& step = report.step_reports[i];
    EXPECT_EQ(step.label, result.step_costs[i].label);
    EXPECT_EQ(step.start.count(), result.step_costs[i].start.count());
    EXPECT_EQ(step.rounds, result.step_costs[i].rounds);
    sum += step.duration;
  }
  EXPECT_NEAR(sum.count(), report.total_time.count(),
              1e-12 * report.total_time.count());
  EXPECT_GT(report.max_step_duration().count(), 0.0);
}

TEST(RunReport, ElectricalFlowRoundTrip) {
  const elec::FatTreeNetwork net(8, elec::ElectricalConfig{});
  const elec::ElectricalRunResult result = net.execute(small_ring());
  const RunReport report = result.to_report();

  EXPECT_EQ(report.backend, "electrical-flow");
  EXPECT_EQ(report.total_time.count(), result.total_time.count());
  EXPECT_EQ(report.steps, result.steps);
  ASSERT_EQ(report.step_reports.size(), result.step_times.size());
  EXPECT_EQ(report.max_wavelengths_used(), 0u);  // not an optical concept

  Seconds cursor(0.0);
  for (std::size_t i = 0; i < report.step_reports.size(); ++i) {
    EXPECT_EQ(report.step_reports[i].start.count(), cursor.count());
    EXPECT_EQ(report.step_reports[i].duration.count(),
              result.step_times[i].count());
    cursor += result.step_times[i];
  }
}

TEST(RunReport, PacketRoundTrip) {
  const elec::PacketLevelNetwork net(8, elec::ElectricalConfig{});
  const elec::PacketRunResult result = net.execute(small_ring());
  const RunReport report = result.to_report();

  EXPECT_EQ(report.backend, "electrical-packet");
  EXPECT_EQ(report.total_time.count(), result.total_time.count());
  EXPECT_EQ(report.steps, result.steps);
  EXPECT_EQ(report.events_fired, result.events_fired);
  ASSERT_EQ(report.step_reports.size(), result.step_times.size());
}

// --------------------------------------------------- report-level helpers

TEST(RunReport, AddCountersMergesSnapshot) {
  obs::Counters counters;
  counters.add("optical.rounds", 14);
  counters.observe_max("optical.max_wavelengths_used", 8);

  RunReport report;
  report.add_counters(counters);
  EXPECT_EQ(report.counters.at("optical.rounds"), 14u);
  EXPECT_EQ(report.counters.at("optical.max_wavelengths_used"), 8u);
}

TEST(RunReport, StepCsvHasOneRowPerStep) {
  RunReport report;
  StepReport a;
  a.label = "reduce-scatter";
  a.duration = Seconds(2e-6);
  a.rounds = 2;
  a.wavelengths_used = 4;
  report.step_reports.push_back(a);
  StepReport b;
  b.label = "broadcast";
  b.start = Seconds(2e-6);
  b.duration = Seconds(1e-6);
  report.step_reports.push_back(b);

  const std::string path = testing::TempDir() + "run_report_steps.csv";
  report.write_step_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "step,label,start_s,duration_s,rounds,wavelengths_used");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2u);
  std::remove(path.c_str());
}

// ------------------------------------------------- write_json() golden

/// Hand-fed report with clean values: the JSON must match byte for byte
/// (fixed key order, %.9g seconds). Anything that consumes these files —
/// plotting scripts, diffing tools — relies on this determinism.
TEST(RunReport, WriteJsonGolden) {
  RunReport report;
  report.backend = "golden";
  report.total_time = Seconds(5e-6);
  report.steps = 1;
  report.rounds = 2;
  report.events_fired = 3;
  report.utilization = 0.5;
  report.resources_observed = 2;
  report.breakdown = {Seconds(2.5e-6), Seconds(1e-6), Seconds(0.0),
                      Seconds(0.0),    Seconds(5e-7), Seconds(1e-6)};
  StepReport step;
  step.label = "exchange";
  step.duration = Seconds(5e-6);
  step.rounds = 2;
  step.wavelengths_used = 1;
  step.breakdown = report.breakdown;
  report.step_reports.push_back(step);
  report.counters["optical.rounds"] = 2;

  std::ostringstream out;
  report.write_json(out);
  const std::string expected =
      "{\n"
      "  \"backend\": \"golden\",\n"
      "  \"total_time_s\": 5e-06,\n"
      "  \"steps\": 1,\n"
      "  \"rounds\": 2,\n"
      "  \"events_fired\": 3,\n"
      "  \"utilization\": 0.5,\n"
      "  \"resources_observed\": 2,\n"
      "  \"breakdown\": {\"transmission_s\":2.5e-06,"
      "\"reconfiguration_s\":1e-06,\"conversion_s\":0,\"processing_s\":0,"
      "\"straggler_wait_s\":5e-07,\"idle_s\":1e-06},\n"
      "  \"step_reports\": [\n"
      "    {\"step\":0,\"label\":\"exchange\",\"start_s\":0,"
      "\"duration_s\":5e-06,\"rounds\":2,\"wavelengths_used\":1,"
      "\"breakdown\":{\"transmission_s\":2.5e-06,\"reconfiguration_s\":1e-06,"
      "\"conversion_s\":0,\"processing_s\":0,\"straggler_wait_s\":5e-07,"
      "\"idle_s\":1e-06}}\n"
      "  ],\n"
      "  \"counters\": {\n"
      "    \"optical.rounds\": 2\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(RunReport, WriteJsonEmptyReportIsStillValid) {
  std::ostringstream out;
  RunReport{}.write_json(out);
  const std::string got = out.str();
  EXPECT_NE(got.find("\"step_reports\": []"), std::string::npos) << got;
  EXPECT_NE(got.find("\"counters\": {}"), std::string::npos) << got;
}

TEST(RunReport, WriteJsonFileRoundTripsAndBadPathThrows) {
  RunReport report;
  report.backend = "file \"quoted\"";  // exercises escaping on disk
  const std::string path = testing::TempDir() + "run_report.json";
  report.write_json_file(path);
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  std::ostringstream direct;
  report.write_json(direct);
  EXPECT_EQ(got.str(), direct.str());
  std::remove(path.c_str());

  EXPECT_THROW(report.write_json_file("/no/such/dir/report.json"), Error);
}

// -------------------------------------- observed == unobserved execution

TEST(Observability, EmptyProbeMatchesUnobservedExecute) {
  const coll::Schedule sched = small_ring();

  const optics::RingNetwork optical(8,
                                    optics::OpticalConfig{}.with_wavelengths(8));
  const auto plain = optical.execute(sched);
  const auto observed = optical.execute(sched, obs::Probe{});
  EXPECT_EQ(plain.total_time.count(), observed.total_time.count());
  EXPECT_EQ(plain.total_rounds, observed.total_rounds);
  EXPECT_EQ(plain.events_fired, observed.events_fired);

  const elec::FatTreeNetwork electrical(8, elec::ElectricalConfig{});
  EXPECT_EQ(electrical.execute(sched).total_time.count(),
            electrical.execute(sched, obs::Probe{}).total_time.count());

  const elec::PacketLevelNetwork packet(8, elec::ElectricalConfig{});
  EXPECT_EQ(packet.execute(sched).total_time.count(),
            packet.execute(sched, obs::Probe{}).total_time.count());
}

TEST(Observability, CountersAgreeWithResultFields) {
  const coll::Schedule sched = small_ring();
  const optics::RingNetwork net(8, optics::OpticalConfig{}.with_wavelengths(8));

  obs::Counters counters;
  const auto result = net.execute(sched, obs::Probe{nullptr, &counters, 0});
  EXPECT_EQ(counters.value("optical.steps"), result.steps);
  EXPECT_EQ(counters.value("optical.rounds"), result.total_rounds);
  EXPECT_EQ(counters.value("optical.max_wavelengths_used"),
            result.max_wavelengths_used);
  EXPECT_EQ(counters.value("optical.reconfig_charges"),
            result.reconfigurations);
  EXPECT_EQ(counters.value("sim.events_fired"), result.events_fired);
}

// ------------------------------------------------------- fluent builders

TEST(FluentConfig, OpticalSettersMatchAggregateInit) {
  optics::OpticalConfig aggregate;
  aggregate.wavelengths = 16;
  aggregate.mrr_reconfig_delay = Seconds(1e-6);
  aggregate.convention = net::RateConvention::kStrictBits;
  aggregate.validate_node_capacity = false;

  const optics::OpticalConfig fluent =
      optics::OpticalConfig{}
          .with_wavelengths(16)
          .with_mrr_reconfig_delay(Seconds(1e-6))
          .with_convention(net::RateConvention::kStrictBits)
          .with_validate_node_capacity(false);

  EXPECT_EQ(fluent.wavelengths, aggregate.wavelengths);
  EXPECT_EQ(fluent.mrr_reconfig_delay.count(),
            aggregate.mrr_reconfig_delay.count());
  EXPECT_EQ(fluent.convention, aggregate.convention);
  EXPECT_EQ(fluent.validate_node_capacity, aggregate.validate_node_capacity);
  // Untouched fields keep their defaults.
  EXPECT_EQ(fluent.fibers_per_direction, 1u);
  EXPECT_EQ(fluent.bytes_per_element, 4u);
}

TEST(FluentConfig, AggregateInitStillWorks) {
  // The ISSUE contract: adding fluent setters must not break aggregate
  // initialization of the config structs.
  const optics::OpticalConfig optical{32};
  EXPECT_EQ(optical.wavelengths, 32u);
  const elec::ElectricalConfig electrical{BitsPerSecond(10e9)};
  EXPECT_EQ(electrical.link_rate.count(), 10e9);
}

TEST(FluentConfig, ElectricalSettersCompose) {
  const elec::ElectricalConfig cfg = elec::ElectricalConfig{}
                                         .with_link_rate(BitsPerSecond(10e9))
                                         .with_router_delay(Seconds(5e-6))
                                         .with_router_ports(16)
                                         .with_convention(
                                             net::RateConvention::kStrictBits);
  EXPECT_EQ(cfg.link_rate.count(), 10e9);
  EXPECT_EQ(cfg.router_delay.count(), 5e-6);
  EXPECT_EQ(cfg.router_ports, 16u);
  EXPECT_EQ(cfg.bytes_per_second(), 10e9 / 8.0);
}

// --------------------------------------------------- registry hardening

TEST(RegistryHardening, ZeroNodesThrows) {
  coll::AllreduceParams p;
  p.num_nodes = 0;
  p.elements = 100;
  EXPECT_THROW(static_cast<void>(coll::Registry::instance().build("ring", p)),
               InvalidArgument);
}

TEST(RegistryHardening, ZeroElementsThrows) {
  coll::AllreduceParams p;
  p.num_nodes = 8;
  p.elements = 0;
  EXPECT_THROW(static_cast<void>(coll::Registry::instance().build("ring", p)),
               InvalidArgument);
}

TEST(RegistryHardening, UnknownNameListsRegisteredAlgorithms) {
  coll::AllreduceParams p;
  p.num_nodes = 8;
  p.elements = 100;
  try {
    static_cast<void>(
        coll::Registry::instance().build("no-such-algorithm", p));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-algorithm"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("ring"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace wrht
