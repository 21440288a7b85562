#include "wrht/verify/differential.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/optical_backend.hpp"

namespace wrht {
namespace {

using verify::DifferentialOptions;
using verify::DifferentialReport;

/// The paper's sweeps assume no per-node MRR constraint (§5.4), exactly as
/// the bench binaries configure their networks.
DifferentialOptions paper_options(std::uint32_t wavelengths) {
  DifferentialOptions options;
  options.config.wavelengths = wavelengths;
  options.config.validate_node_capacity = false;
  return options;
}

// --------------------------- Fig. 4 regime: N=1024, m sweep, w=64

TEST(VerifyDifferential, Fig4GroupSizeSweepWithinOnePercent) {
  for (const std::uint32_t m : {17u, 33u, 65u, 129u}) {
    const coll::Schedule sched =
        core::wrht_allreduce(1024, 4096, core::WrhtOptions{m, 64});
    const DifferentialReport report =
        verify::check_differential(sched, paper_options(64));
    EXPECT_TRUE(report.ok()) << "m=" << m << ":\n" << report.result.summary();
    EXPECT_TRUE(report.single_round) << "m=" << m;
    EXPECT_LE(report.rel_error, 0.01) << "m=" << m;
  }
}

// --------------------------- Fig. 5 regime: wavelength sweep, planner m

TEST(VerifyDifferential, Fig5WavelengthSweepWithinOnePercent) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const core::WrhtPlan plan = core::plan_wrht(1024, w);
    const coll::Schedule sched = core::wrht_allreduce(
        1024, 4096, core::WrhtOptions{plan.group_size, w});
    // Carry the operational first-fit budget (1.5x the analytic
    // requirement, DESIGN.md) so every step stays single-round — the
    // regime the paper's Fig. 5 numbers assume.
    const std::uint32_t carried = static_cast<std::uint32_t>(
        (3 * std::max<std::uint64_t>(plan.steps.wavelengths_required, w) + 1) /
        2);
    const DifferentialReport report =
        verify::check_differential(sched, paper_options(carried));
    EXPECT_TRUE(report.ok()) << "w=" << w << ":\n" << report.result.summary();
    EXPECT_TRUE(report.single_round) << "w=" << w;
    EXPECT_LE(report.rel_error, 0.01) << "w=" << w;
  }
}

// --------------------------- Fig. 6 regime: scaling N at w=64

TEST(VerifyDifferential, Fig6ScalingSweepWithinOnePercent) {
  for (const std::uint32_t n : {64u, 128u, 256u, 512u, 1024u}) {
    const core::WrhtPlan plan = core::plan_wrht(n, 64);
    const coll::Schedule sched = core::wrht_allreduce(
        n, 4096, core::WrhtOptions{plan.group_size, 64});
    const DifferentialReport report =
        verify::check_differential(sched, paper_options(64));
    EXPECT_TRUE(report.ok()) << "N=" << n << ":\n" << report.result.summary();
    EXPECT_LE(report.rel_error, 0.01) << "N=" << n;
  }
}

// ----------------------------------------------------------- baselines

TEST(VerifyDifferential, BaselinesAgreeToo) {
  const DifferentialReport ring = verify::check_differential(
      coll::ring_allreduce(64, 640), paper_options(64));
  EXPECT_TRUE(ring.ok()) << ring.result.summary();
  EXPECT_TRUE(ring.single_round);

  const DifferentialReport bt = verify::check_differential(
      coll::btree_allreduce(64, 640), paper_options(64));
  EXPECT_TRUE(bt.ok()) << bt.result.summary();
}

// --------------------------------------------- multi-round lower bound

TEST(VerifyDifferential, MultiRoundRunsNeverBeatTheAnalyticalBound) {
  // Two clockwise transfers sharing segment 1 cannot coexist on one
  // wavelength, so the step splits into two rounds; the simulator must
  // charge at least the single-round Eq. (6) estimate.
  coll::Schedule sched("overlap", 6, 8);
  coll::Step& step = sched.add_step("clash");
  step.transfers.push_back(coll::Transfer{
      0, 2, 0, 8, coll::TransferKind::kReduce, topo::Direction::kClockwise});
  step.transfers.push_back(coll::Transfer{
      1, 3, 0, 8, coll::TransferKind::kReduce, topo::Direction::kClockwise});

  const DifferentialReport report =
      verify::check_differential(sched, paper_options(1));
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_FALSE(report.single_round);
  EXPECT_GE(report.simulated_seconds, report.analytical_seconds);
}

TEST(VerifyDifferential, EmptyStepIsFree) {
  // An empty step has no round to price, so it adds nothing to either side
  // and does not make a one-round-per-step run count as multi-round.
  coll::Schedule sched("manual", 4, 8);
  sched.add_step();
  sched.add_step().transfers.push_back(
      coll::Transfer{0, 1, 0, 8, coll::TransferKind::kReduce, {}});

  const DifferentialReport report = verify::check_differential(sched);
  EXPECT_TRUE(report.ok()) << report.result.summary();
  EXPECT_TRUE(report.single_round);
  const optics::OpticalConfig cfg;
  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  EXPECT_EQ(report.analytical_seconds,
            core::comm_time(1, Bytes{32}, model).count());
  EXPECT_LE(report.rel_error, 1e-12);
}

TEST(VerifyDifferential, ReportCarriesBothPrices) {
  const DifferentialReport report = verify::check_differential(
      coll::ring_allreduce(16, 160), paper_options(64));
  EXPECT_GT(report.simulated_seconds, 0.0);
  EXPECT_GT(report.analytical_seconds, 0.0);
}

// ------------------------------------------- explicit backend injection

TEST(VerifyDifferential, InjectedBackendMatchesDefaultPath) {
  // Passing an optics::RingBackend built from the same config must price
  // identically to the nullptr default (which constructs one internally).
  const coll::Schedule sched = coll::ring_allreduce(16, 160);
  DifferentialOptions options = paper_options(64);
  const DifferentialReport via_default =
      verify::check_differential(sched, options);

  const optics::RingBackend backend(
      sched.num_nodes(), options.config);
  options.backend = &backend;
  const DifferentialReport via_backend =
      verify::check_differential(sched, options);

  EXPECT_TRUE(via_backend.ok()) << via_backend.result.summary();
  EXPECT_EQ(via_backend.simulated_seconds, via_default.simulated_seconds);
  EXPECT_EQ(via_backend.single_round, via_default.single_round);
}

}  // namespace
}  // namespace wrht
