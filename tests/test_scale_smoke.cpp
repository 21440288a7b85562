// Large-scale smoke tests (ctest label `large`, excluded from tier-1):
// build WRHT schedules for an N = 10^5 ring and a 256x256 torus, verify
// them with the cheap oracles (structural invariants plus a sampled
// data-level proof on a 1-element vector — WRHT schedules are
// full-vector, so the element axis is structure-free and one element
// proves the same linear combination), and hold the whole run
// under a hard peak-RSS budget read from prof::peak_rss_bytes. A Fig. 5-
// shaped sweep of N = 1024 rings holds the sweep cache to the same budget,
// and so does an observed N = 1024 ring on the flow engine with its
// utilization analysis.
//
// These run as their own single-shard Release CI job: they are memory- and
// minutes-scale, not unit-test-scale.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/electrical/electrical_backend.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/invariants.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht {
namespace {

constexpr std::uint32_t kRingNodes = 100000;
constexpr std::uint32_t kTorusSide = 256;
constexpr std::uint32_t kWavelengths = 64;

/// Hard budget for the whole binary (both schedules and their verifiers):
/// the N = 10^5 ring schedule holds ~10^5-scale transfer lists, the
/// 256x256 torus one is of comparable size, and the sampled oracle keeps
/// one double per node. Measured peak is ~25 MB for those
/// tests, ~73 MB for the ring sweep (one 67 MB ring in flight) and ~69 MB
/// for the observed flow ring; the headroom absorbs allocator and libc
/// variance across runners without letting an accidental O(N^2) path slip
/// through.
constexpr std::size_t kPeakRssBudgetBytes = 256ull * 1024 * 1024;

TEST(ScaleSmoke, Ring100kWrhtScheduleBuildsAndVerifies) {
  const core::WrhtPlan plan = core::plan_wrht(kRingNodes, kWavelengths);
  core::WrhtOptions options;
  options.group_size = plan.group_size;
  options.wavelengths = kWavelengths;

  // Element axis sampled at 1: rescale_elements (what the sweep cache
  // does) proves structure is element-independent for full-vector
  // schedules, so verifying at 1 element verifies them all.
  const coll::Schedule schedule =
      core::wrht_allreduce(kRingNodes, 1, options);
  EXPECT_TRUE(schedule.full_vector());

  const verify::CheckResult structure =
      verify::check_schedule_structure(schedule);
  EXPECT_TRUE(structure.ok()) << structure.summary();

  const verify::CheckResult steps = verify::check_wrht_step_count(
      schedule, kRingNodes, plan.group_size, kWavelengths);
  EXPECT_TRUE(steps.ok()) << steps.summary();

  const verify::OracleReport oracle = verify::check_allreduce(schedule);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
  // N^2 cells puts the exact provenance proof far over its cap; the
  // numeric proof is the sampled oracle here.
  EXPECT_FALSE(oracle.provenance_checked);

  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

TEST(ScaleSmoke, Torus256x256WrhtScheduleBuildsAndVerifies) {
  const topo::Torus torus(kTorusSide, kTorusSide);
  core::WrhtOptions options;
  options.group_size = core::plan_wrht(kTorusSide, kWavelengths).group_size;
  options.wavelengths = kWavelengths;

  const coll::Schedule schedule =
      core::torus_wrht_allreduce(torus, 1, options);
  EXPECT_EQ(schedule.num_nodes(), kTorusSide * kTorusSide);

  const verify::CheckResult structure =
      verify::check_schedule_structure(schedule);
  EXPECT_TRUE(structure.ok()) << structure.summary();

  const verify::OracleReport oracle = verify::check_allreduce(schedule);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();

  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

/// The element-rescale patch at scale: re-targeting the 10^5-node build at
/// a paper-sized vector must not touch the step structure or the RSS
/// budget (counts mutate in place — no new storage).
TEST(ScaleSmoke, Ring100kRescaleStaysInBudget) {
  const core::WrhtPlan plan = core::plan_wrht(kRingNodes, kWavelengths);
  core::WrhtOptions options;
  options.group_size = plan.group_size;
  options.wavelengths = kWavelengths;

  coll::Schedule schedule = core::wrht_allreduce(kRingNodes, 1, options);
  const std::size_t steps_before = schedule.num_steps();
  schedule.rescale_elements(25557032);  // ResNet50 parameters
  EXPECT_EQ(schedule.num_steps(), steps_before);
  EXPECT_EQ(schedule.elements(), 25557032u);
  EXPECT_TRUE(schedule.full_vector());
  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

/// Fig. 5's Ring series at full size: 4 payloads x N = 1024 x 4 wavelength
/// budgets, 16 rings of 2.1 M transfers (67 MB) each, all distinct points.
/// The sweep cache must let go of each ring once its point has run, so the
/// sweep peaks at one ring; holding all 16 would take over 1 GB.
TEST(ScaleSmoke, Fig5ShapedRingSweepHoldsOneRingAtATime) {
  exp::SweepSpec spec;
  for (const dnn::Model& model : dnn::paper_workloads()) {
    spec.workloads.push_back(exp::Workload{
        model.name(), static_cast<std::size_t>(model.parameter_count())});
  }
  spec.nodes = {1024};
  spec.wavelengths = {4, 16, 64, 256};
  exp::Series ring;
  ring.name = "ring";
  ring.algorithm = "ring";
  ring.backend = "schedule-only";
  spec.series = {ring};
  obs::Counters counters;
  spec.counters = &counters;

  const std::vector<exp::SweepRow> rows = exp::SweepRunner(1).run(spec);
  ASSERT_EQ(rows.size(), 16u);
  for (const exp::SweepRow& row : rows) {
    EXPECT_EQ(row.report.steps, 2u * (1024 - 1));
  }
  EXPECT_EQ(counters.value("sweep.schedule.builds"), 16u);
  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

/// The largest observed flow run: an N = 1024 ring of 2^20 elements on
/// the flow engine with an occupancy sampler attached, then its
/// utilization analysis. Its 2 046 steps over 2 176 links read as 12.8 M
/// intervals; written out one by one they took 461 MB, so the sampler
/// must keep each step as one pattern use.
TEST(ScaleSmoke, ObservedFlowRing1024StaysInBudget) {
  constexpr std::uint32_t kNodes = 1024;
  const coll::Schedule schedule =
      coll::ring_allreduce(kNodes, std::size_t{1} << 20);
  const elec::FlowBackend backend(kNodes, elec::ElectricalConfig{});
  obs::OccupancySampler sampler;
  obs::Probe probe;
  probe.occupancy = &sampler;
  const RunReport report = backend.execute(schedule, probe);
  const obs::UtilizationAnalysis analysis =
      obs::analyze_utilization(report, sampler);

  EXPECT_EQ(report.steps, 2u * (kNodes - 1));
  EXPECT_EQ(sampler.num_resources(), 2176u);
  EXPECT_EQ(sampler.size(), 12832512u);
  EXPECT_EQ(analysis.critical_path.size(), report.steps);
  EXPECT_NEAR(analysis.critical_path_length.count(),
              report.total_time.count(), 1e-9);
  EXPECT_LE(prof::peak_rss_bytes(), kPeakRssBudgetBytes);
}

}  // namespace
}  // namespace wrht
