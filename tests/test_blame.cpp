// wrht::diag blame attribution tests: the accounting identity on all four
// backends, what-if soundness against a real re-simulation, wrht-blame-1
// byte determinism, the cross-run differ, and the planner
// predicted-vs-realized gate.
#include "wrht/diag/blame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/verify/blame.hpp"

namespace wrht::diag {
namespace {

optics::OpticalConfig ring_cfg(std::uint32_t w = 8) {
  optics::OpticalConfig cfg;
  cfg.wavelengths = w;
  return cfg;
}

/// Runs `schedule` on the ring with a blame probe and returns the log.
obs::TransferLog observe_ring(const coll::Schedule& schedule,
                              const optics::OpticalConfig& cfg,
                              std::uint32_t nodes, Seconds* total = nullptr) {
  const optics::RingNetwork net(nodes, cfg);
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  const auto res = net.execute(schedule, probe);
  if (total != nullptr) *total = res.total_time;
  return log;
}

void expect_identity(const obs::TransferLog& log, Seconds engine_total,
                     const std::string& label) {
  const BlameReport report = build_blame(log);
  const verify::CheckResult check = verify::check_blame_identity(report);
  EXPECT_TRUE(check.ok()) << label << ": " << check.summary();
  // The blame total must be the engine's makespan, not a reconstruction
  // that merely balances internally.
  EXPECT_NEAR(report.total_time.count(), engine_total.count(),
              1e-9 * engine_total.count() + 1e-12)
      << label;
  EXPECT_FALSE(report.critical_path.empty()) << label;
}

TEST(Blame, IdentityHoldsOnOpticalRing) {
  const std::uint32_t n = 32;
  for (const auto policy :
       {net::ReconfigPolicy::kEveryRound, net::ReconfigPolicy::kOnRetune,
        net::ReconfigPolicy::kOverlapped}) {
    optics::OpticalConfig cfg = ring_cfg();
    cfg.reconfig_policy = policy;
    Seconds total;
    const obs::TransferLog log = observe_ring(
        core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), cfg, n,
        &total);
    expect_identity(log, total, "ring/" + net::to_string(policy));
  }
}

TEST(Blame, IdentityHoldsOnOpticalTorus) {
  const topo::Torus torus(4, 8);
  const optics::TorusNetwork net(torus, ring_cfg());
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  const auto res = net.execute(
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 8}),
      probe);
  expect_identity(log, res.total_time, "torus");
  EXPECT_EQ(build_blame(log).backend, "optical-torus");
}

TEST(Blame, IdentityHoldsOnElectricalFlow) {
  const elec::FatTreeNetwork net(32, elec::ElectricalConfig{});
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  const auto res = net.execute(coll::ring_allreduce(32, 6400), probe);
  expect_identity(log, res.total_time, "flow");
  EXPECT_EQ(build_blame(log).backend, "electrical-flow");
}

TEST(Blame, IdentityHoldsOnElectricalPacket) {
  const elec::PacketLevelNetwork net(16, elec::ElectricalConfig{});
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  const auto res = net.execute(coll::ring_allreduce(16, 256), probe);
  expect_identity(log, res.total_time, "packet");
  EXPECT_EQ(build_blame(log).backend, "electrical-packet");
}

TEST(Blame, SecondRunOnOneLogIsRejected) {
  // A log holds one run: a second run would merge into the first's
  // timeline (blame totals twice the makespan over twice the steps, and
  // the identity still balances).
  const coll::Schedule sched = coll::ring_allreduce(16, 64);
  const optics::RingNetwork net(16, ring_cfg(4));
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  const Seconds total = net.execute(sched, probe).total_time;
  const std::size_t steps = log.steps().size();
  EXPECT_THROW((void)net.execute(sched, probe), InvalidArgument);

  log.clear();
  EXPECT_TRUE(log.empty());
  (void)net.execute(sched, probe);
  EXPECT_EQ(log.steps().size(), steps);
  expect_identity(log, total, "cleared log");
  EXPECT_EQ(log.lane(log.transfers().front().lane), "ring");
}

TEST(Blame, TorusLanesAreSeparated) {
  const topo::Torus torus(4, 8);
  const optics::TorusNetwork net(torus, ring_cfg());
  obs::TransferLog log;
  obs::Probe probe;
  probe.transfers = &log;
  (void)net.execute(
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 8}),
      probe);
  const BlameReport report = build_blame(log);
  bool row = false;
  bool col = false;
  for (const LaneBlame& lane : report.lanes) {
    row = row || lane.lane.rfind("row", 0) == 0;
    col = col || lane.lane.rfind("col", 0) == 0;
  }
  EXPECT_TRUE(row);
  EXPECT_TRUE(col);
}

// The what-if re-pricing for kOnRetune must be a sound upper bound on the
// speedup an actual kOnRetune re-simulation realizes — and, on the ring,
// within 10% of it (the ablation_overlap acceptance gate). The formula
// replays the engine's own retune walk, so the two agree to fp noise.
TEST(Blame, WhatIfOnRetuneMatchesReSimulationOnRing) {
  const std::uint32_t n = 64;
  for (const auto& schedule :
       {coll::ring_allreduce(n, 64), coll::ring_allreduce(n, 100000),
        core::wrht_allreduce(n, 64, core::WrhtOptions{9, 8}),
        core::wrht_allreduce(n, 100000, core::WrhtOptions{9, 8})}) {
    Seconds every_total;
    const obs::TransferLog log =
        observe_ring(schedule, ring_cfg(), n, &every_total);
    const double predicted = what_if_on_retune(log).count();

    optics::OpticalConfig retune = ring_cfg();
    retune.reconfig_policy = net::ReconfigPolicy::kOnRetune;
    const optics::RingNetwork net(n, retune);
    const double actual = net.execute(schedule).total_time.count();

    const double predicted_speedup = every_total.count() / predicted;
    const double actual_speedup = every_total.count() / actual;
    EXPECT_GE(predicted_speedup, actual_speedup * (1.0 - 1e-9))
        << schedule.algorithm();
    EXPECT_LE(predicted_speedup, actual_speedup * 1.10)
        << schedule.algorithm();
    EXPECT_NEAR(predicted, actual, 1e-9 * actual) << schedule.algorithm();
  }
}

TEST(Blame, WhatIfZeroNeverExceedsTotal) {
  const std::uint32_t n = 32;
  const obs::TransferLog log = observe_ring(
      core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), ring_cfg(), n);
  const BlameReport report = build_blame(log);
  for (const BlameCategory category : all_blame_categories()) {
    const double hypothetical = what_if_zero(log, category).count();
    EXPECT_LE(hypothetical, report.total_time.count() * (1.0 + 1e-9))
        << to_string(category);
    // Removing a category can save at most what was attributed to it
    // (the DAG bound is sound, never optimistic beyond the attribution).
    EXPECT_GE(hypothetical,
              report.total_time.count() - report.categories[category] -
                  1e-12)
        << to_string(category);
  }
}

TEST(Blame, JsonIsByteDeterministic) {
  const std::uint32_t n = 32;
  const auto schedule = core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8});
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    const obs::TransferLog log = observe_ring(schedule, ring_cfg(), n);
    const BlameReport report = build_blame(log);
    const std::vector<std::pair<std::string, double>> what_if = {
        {"policy_on_retune", what_if_on_retune(log).count()}};
    std::ostringstream stream;
    write_blame_json(report, what_if, stream);
    *out = stream.str();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\": \"wrht-blame-1\""), std::string::npos);
}

TEST(Blame, JsonRoundTripsThroughTheReader) {
  const std::uint32_t n = 32;
  const obs::TransferLog log = observe_ring(
      core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), ring_cfg(), n);
  const BlameReport report = build_blame(log);
  std::ostringstream stream;
  write_blame_json(report, {{"policy_on_retune", 1.25e-3}}, stream);
  std::istringstream in(stream.str());
  const ParsedBlame parsed = read_blame_json(in);
  EXPECT_EQ(parsed.kind, "run");
  EXPECT_EQ(parsed.source, "optical-ring");
  EXPECT_DOUBLE_EQ(parsed.total_time, report.total_time.count());
  EXPECT_DOUBLE_EQ(parsed.attributed_time, report.attributed());
  EXPECT_EQ(parsed.categories.size(), kNumBlameCategories);
  EXPECT_DOUBLE_EQ(parsed.categories.at("reconfiguration"),
                   report.categories[BlameCategory::kReconfiguration]);
  EXPECT_DOUBLE_EQ(parsed.what_if.at("policy_on_retune"), 1.25e-3);
  EXPECT_EQ(parsed.lanes.size(), report.lanes.size());
}

TEST(Blame, ReaderRejectsMalformedInput) {
  {
    std::istringstream in("{\n  \"kind\": \"run\"\n}\n");
    EXPECT_THROW((void)read_blame_json(in), Error);  // no schema marker
  }
  {
    std::istringstream in("{\n  \"schema\": \"wrht-blame-9\"\n}\n");
    EXPECT_THROW((void)read_blame_json(in), Error);  // wrong version
  }
  {
    std::istringstream in(
        "{\n  \"schema\": \"wrht-blame-1\",\n  \"categories\": {\n"
        "    garbage here\n  }\n}\n");
    try {
      (void)read_blame_json(in);
      FAIL() << "malformed category accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
}

/// A real run-kind wrht-blame-1 document.
std::string sample_blame_json() {
  const std::uint32_t n = 32;
  const obs::TransferLog log = observe_ring(
      core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), ring_cfg(), n);
  std::ostringstream stream;
  write_blame_json(build_blame(log), {{"policy_on_retune", 1.25e-3}}, stream);
  return stream.str();
}

/// 1-based line of byte offset `at` in `text`.
std::size_t line_of(const std::string& text, std::size_t at) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + at, '\n'));
}

/// Asserts the reader rejects `text` with a diagnostic naming `line`.
void expect_rejected_on_line(const std::string& text, std::size_t line) {
  std::istringstream in(text);
  try {
    (void)read_blame_json(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line) +
                                         ":"),
              std::string::npos)
        << e.what();
  }
}

// A file cut off inside "categories" used to read back with whatever
// categories preceded the cut.
TEST(Blame, ReaderRejectsAFileCutInsideCategories) {
  const std::string json = sample_blame_json();
  const std::size_t cut =
      json.find(",\n", json.find("\"categories\": {"));
  ASSERT_NE(cut, std::string::npos);
  expect_rejected_on_line(json.substr(0, cut), line_of(json, cut));
}

// A value that is not a number used to read as 0.
TEST(Blame, ReaderRejectsANonNumericTotal) {
  std::string json = sample_blame_json();
  const std::size_t at = json.find("\"total_time\": ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + std::string("\"total_time\": ").size();
  json.replace(value, json.find(',', value) - value, "oops");
  expect_rejected_on_line(json, line_of(json, at));
}

// Names used to be written raw: a quote cut the name short on read-back.
TEST(Blame, NamesWithQuotesRoundTrip) {
  const std::uint32_t n = 32;
  BlameReport report = build_blame(observe_ring(
      core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), ring_cfg(), n));
  ASSERT_FALSE(report.lanes.empty());
  report.backend = "my\"engine";
  report.lanes[0].lane = "row\"3";
  std::ostringstream stream;
  write_blame_json(report, {{"what \"if\"", 1.0}}, stream);
  std::istringstream in(stream.str());
  const ParsedBlame parsed = read_blame_json(in);
  EXPECT_EQ(parsed.source, "my\"engine");
  EXPECT_EQ(parsed.lanes.count("row\"3"), 1u);
  EXPECT_EQ(parsed.lanes.size(), report.lanes.size());
  EXPECT_EQ(parsed.what_if.count("what \"if\""), 1u);
}

TEST(Blame, DifferIsCleanOnIdenticalRunsAndFlagsInjectedRegression) {
  const std::uint32_t n = 32;
  const auto schedule = core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8});

  const auto to_parsed = [&](const optics::OpticalConfig& cfg) {
    const obs::TransferLog log = observe_ring(schedule, cfg, n);
    std::ostringstream stream;
    write_blame_json(build_blame(log), {}, stream);
    std::istringstream in(stream.str());
    return read_blame_json(in);
  };

  const ParsedBlame base = to_parsed(ring_cfg());
  const BlameDiff same = diff_blame(base, to_parsed(ring_cfg()));
  EXPECT_TRUE(same.clean()) << same.to_string();

  // Inject a 2x reconfiguration-cost regression; the differ must localize
  // the movement to the reconfiguration category and flag the run.
  optics::OpticalConfig slow = ring_cfg();
  slow.mrr_reconfig_delay = Seconds(50e-6);
  const BlameDiff diff = diff_blame(base, to_parsed(slow));
  EXPECT_TRUE(diff.regressed) << diff.to_string();
  ASSERT_FALSE(diff.categories.empty());
  EXPECT_EQ(diff.categories.front().name, "reconfiguration")
      << diff.to_string();
  EXPECT_GT(diff.categories.front().delta(), 0.0);
}

// Predicted-vs-realized gate: the planner's closed forms and the realized
// blame must tell the same story for a candidate the engine executes
// exactly (static ring, kEveryRound — no cache or retune subtleties).
TEST(Blame, PlannerPredictionMatchesRealizedBlame) {
  const std::uint32_t n = 32;
  const std::size_t elements = 6400;
  plan::PlannerOptions options;
  options.wavelengths = 8;
  const plan::Candidate candidate = plan::predict(
      plan::CandidateKind::kStaticRing, n, elements, options);
  ASSERT_TRUE(candidate.feasible) << candidate.note;

  const auto schedule = plan::build_candidate(
      plan::CandidateKind::kStaticRing, n, elements, options);
  Seconds total;
  const obs::TransferLog log = observe_ring(schedule, ring_cfg(), n, &total);
  const BlameReport realized = build_blame(log);

  EXPECT_NEAR(candidate.predicted_time.count(), total.count(),
              1e-9 * total.count());
  EXPECT_EQ(realized.rounds, candidate.rounds);
  EXPECT_NEAR(realized.categories[BlameCategory::kReconfiguration],
              static_cast<double>(candidate.reconfig_charges) *
                  options.mrr_reconfig_delay.count(),
              1e-12);
  EXPECT_NEAR(realized.categories[BlameCategory::kConversion],
              static_cast<double>(candidate.rounds) *
                  options.oeo_delay.count(),
              1e-12);
}

TEST(Blame, CriticalPathExportsSpansAndFlowArrows) {
  const std::uint32_t n = 32;
  const obs::TransferLog log = observe_ring(
      core::wrht_allreduce(n, 4096, core::WrhtOptions{5, 8}), ring_cfg(), n);
  const BlameReport report = build_blame(log);
  obs::ChromeTraceSink sink("blame-test");
  export_critical_path(report, sink);
  EXPECT_EQ(sink.size(), report.critical_path.size());
  ASSERT_GT(report.critical_path.size(), 1u);
  EXPECT_EQ(sink.flow_count(), report.critical_path.size() - 1);
  std::ostringstream stream;
  sink.write(stream);
  const std::string json = stream.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(Blame, UnobservedLogIsRejected) {
  const obs::TransferLog empty;
  EXPECT_THROW((void)build_blame(empty), Error);
}

}  // namespace
}  // namespace wrht::diag
