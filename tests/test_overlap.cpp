// Overlapped reconfiguration (ReconfigPolicy::kOverlapped): timing
// identities, structural invariance, conflict freedom and the data-level
// oracle, on both optical engines.
#include <gtest/gtest.h>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"
#include "wrht/verify/oracle.hpp"
#include "wrht/verify/overlap.hpp"

namespace wrht::optics {
namespace {

OpticalConfig cfg(net::ReconfigPolicy policy, std::uint32_t w = 8) {
  OpticalConfig c;
  c.wavelengths = w;
  c.validate_node_capacity = false;
  c.reconfig_policy = policy;
  return c;
}

std::vector<coll::Schedule> ring_schedules(std::uint32_t n,
                                           std::size_t elements) {
  return {coll::ring_allreduce(n, elements),
          coll::btree_allreduce(n, elements),
          core::wrht_allreduce(n, elements, core::WrhtOptions{5, 8})};
}

TEST(Overlap, NeverSlowerThanSerialOnRing) {
  const std::uint32_t n = 30;
  for (const auto& sched : ring_schedules(n, 4096)) {
    const RingNetwork serial(n, cfg(net::ReconfigPolicy::kEveryRound));
    const RingNetwork overlapped(n, cfg(net::ReconfigPolicy::kOverlapped));
    const auto s = serial.execute(sched);
    const auto o = overlapped.execute(sched);
    EXPECT_LT(o.total_time.count(), s.total_time.count())
        << sched.algorithm();
  }
}

TEST(Overlap, HiddenTimeIdentityOnRing) {
  // overlapped total + hidden == serial total, exactly: every round still
  // retunes, the delay just moves off the critical path.
  const std::uint32_t n = 30;
  for (const auto& sched : ring_schedules(n, 4096)) {
    const RingNetwork serial(n, cfg(net::ReconfigPolicy::kEveryRound));
    const RingNetwork overlapped(n, cfg(net::ReconfigPolicy::kOverlapped));
    const auto s = serial.execute(sched);
    const auto o = overlapped.execute(sched);
    EXPECT_NEAR(o.total_time.count() + o.overlap_hidden.count(),
                s.total_time.count(), 1e-12 * (1.0 + s.total_time.count()))
        << sched.algorithm();
    EXPECT_GT(o.overlap_hidden.count(), 0.0) << sched.algorithm();
  }
}

TEST(Overlap, StructureUnchanged) {
  const std::uint32_t n = 30;
  for (const auto& sched : ring_schedules(n, 4096)) {
    const RingNetwork serial(n, cfg(net::ReconfigPolicy::kEveryRound));
    const RingNetwork overlapped(n, cfg(net::ReconfigPolicy::kOverlapped));
    const auto s = serial.execute(sched);
    const auto o = overlapped.execute(sched);
    EXPECT_EQ(o.steps, s.steps);
    EXPECT_EQ(o.total_rounds, s.total_rounds);
    EXPECT_EQ(o.max_wavelengths_used, s.max_wavelengths_used);
    EXPECT_EQ(o.longest_lightpath_hops, s.longest_lightpath_hops);
  }
}

TEST(Overlap, FirstRoundPaysInFull) {
  // Nothing precedes round 0, so its reconfiguration cannot be hidden: on
  // a latency-dominated payload the first step is strictly longer than the
  // later (fully hidden) ones.
  const std::uint32_t n = 16;
  const RingNetwork net(n, cfg(net::ReconfigPolicy::kOverlapped, 64));
  const auto res = net.execute(coll::ring_allreduce(n, n));
  ASSERT_GE(res.step_costs.size(), 2u);
  EXPECT_GT(res.step_costs[0].duration.count(),
            res.step_costs[1].duration.count());
}

TEST(Overlap, LargePayloadHidesReconfigurationEntirely) {
  // Serialization of ~8 MB dwarfs the 25 us retune: every round after the
  // first charges zero residual, so reconfigurations counts exactly 1.
  const std::uint32_t n = 8;
  const RingNetwork net(n, cfg(net::ReconfigPolicy::kOverlapped, 64));
  const auto res = net.execute(coll::ring_allreduce(n, 1u << 21));
  EXPECT_EQ(res.reconfigurations, 1u);
  EXPECT_NEAR(res.overlap_hidden.count(),
              25e-6 * static_cast<double>(res.total_rounds - 1),
              1e-12 * static_cast<double>(res.total_rounds));
}

TEST(Overlap, TinyPayloadStillPaysMostOfTheDelay) {
  // A latency-dominated run cannot hide much: every round pays a residual
  // and the overlapped time stays close to serial.
  const std::uint32_t n = 16;
  const RingNetwork serial(n, cfg(net::ReconfigPolicy::kEveryRound, 64));
  const RingNetwork overlapped(n, cfg(net::ReconfigPolicy::kOverlapped, 64));
  const auto sched = coll::ring_allreduce(n, n);
  const auto s = serial.execute(sched);
  const auto o = overlapped.execute(sched);
  EXPECT_EQ(o.reconfigurations, o.total_rounds);
  EXPECT_GT(o.total_time.count(), 0.9 * s.total_time.count());
}

TEST(Overlap, CheckerPassesOnCanonicalSchedules) {
  const std::uint32_t n = 30;
  for (const auto& sched : ring_schedules(n, 4096)) {
    verify::OverlapOptions options;
    options.wavelengths = 8;
    const auto result = verify::check_overlap_consistency(sched, n, options);
    EXPECT_TRUE(result.ok()) << sched.algorithm() << "\n"
                             << result.summary();
  }
}

TEST(Overlap, CheckerCoversMultiRoundSteps) {
  // Starve the wavelength budget so steps split into rounds; the overlap
  // identities must hold per round, not just per step.
  const auto sched = core::wrht_allreduce(24, 512, core::WrhtOptions{12, 2});
  verify::OverlapOptions options;
  options.wavelengths = 2;
  const auto result = verify::check_overlap_consistency(sched, 24, options);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(Overlap, OracleProvesDataUnchanged) {
  // The policy is pure re-pricing; the schedule still computes the global
  // sum (proved numerically and by provenance).
  const std::uint32_t n = 16;
  for (const auto& sched : ring_schedules(n, 256)) {
    const auto report = verify::check_allreduce(sched);
    EXPECT_TRUE(report.result.ok()) << sched.algorithm() << "\n"
                                    << report.result.summary();
  }
}

TEST(Overlap, TorusNeverSlowerAndIdentityHolds) {
  // Bandwidth-dominated payload: every retune after step 0's first round
  // hides completely, so only one reconfiguration lands on the clock.
  const topo::Torus torus(4, 4);
  const auto sched = core::torus_wrht_allreduce(torus, 1u << 21,
                                                core::WrhtOptions{3, 8});
  const TorusNetwork serial(torus, cfg(net::ReconfigPolicy::kEveryRound));
  const TorusNetwork overlapped(torus,
                                cfg(net::ReconfigPolicy::kOverlapped));
  const auto s = serial.execute(sched);
  const auto o = overlapped.execute(sched);
  EXPECT_LT(o.total_time.count(), s.total_time.count());
  EXPECT_EQ(o.steps, s.steps);
  EXPECT_EQ(o.total_rounds, s.total_rounds);
  EXPECT_NEAR(o.total_time.count() + o.overlap_hidden.count(),
              s.total_time.count(), 1e-12 * (1.0 + s.total_time.count()));
  EXPECT_LT(o.reconfigurations, s.reconfigurations);
}

TEST(Overlap, TorusOccupancyIdentityHolds) {
  const topo::Torus torus(4, 4);
  const auto sched = core::torus_wrht_allreduce(torus, 2048,
                                                core::WrhtOptions{3, 8});
  const TorusNetwork net(torus, cfg(net::ReconfigPolicy::kOverlapped));
  obs::OccupancySampler sampler;
  obs::Probe probe;
  probe.occupancy = &sampler;
  const auto run = net.execute(sched, probe);
  RunReport report = run.to_report();
  const auto analysis = obs::analyze_utilization(report, sampler);
  EXPECT_NEAR(analysis.breakdown.total().count(), run.total_time.count(),
              1e-9 * (1.0 + run.total_time.count()));
}

TEST(Overlap, OnRetuneStillBeatsOverlapForStaticCircuits) {
  // Ring All-reduce never retunes after round 0: retune-aware accounting
  // removes the delay entirely while overlap still pays residuals on a
  // latency-bound payload. The two refinements are genuinely different.
  const std::uint32_t n = 32;
  const auto sched = coll::ring_allreduce(n, n);
  const RingNetwork retune(n, cfg(net::ReconfigPolicy::kOnRetune, 64));
  const RingNetwork overlapped(n, cfg(net::ReconfigPolicy::kOverlapped, 64));
  EXPECT_LT(retune.execute(sched).total_time.count(),
            overlapped.execute(sched).total_time.count());
}

TEST(Overlap, RingScheduleIsReconfigFreeWrhtIsNot) {
  // The Schedule IR metadata agrees with what the engines observe.
  EXPECT_TRUE(coll::is_reconfig_free(coll::ring_allreduce(16, 64)));
  EXPECT_FALSE(coll::is_reconfig_free(
      core::wrht_allreduce(16, 64, core::WrhtOptions{4, 8})));
}

}  // namespace
}  // namespace wrht::optics
