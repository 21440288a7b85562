// End-to-end integration: plan -> schedule -> verify semantics -> simulate
// on both interconnects, asserting the paper's qualitative results (who
// wins where) on reduced-scale configurations.
#include <gtest/gtest.h>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/dnn/training.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht {
namespace {

optics::OpticalConfig optical_cfg(std::uint32_t w = 64) {
  optics::OpticalConfig cfg;
  cfg.wavelengths = w;
  return cfg;
}

TEST(Integration, PlanScheduleVerifySimulate) {
  const std::uint32_t n = 128;
  const core::WrhtPlan plan = core::plan_wrht(n, 16);
  const auto sched = core::wrht_allreduce(
      n, 256, core::WrhtOptions{plan.group_size, 16});
  const verify::OracleReport oracle = verify::check_allreduce(sched);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
  const optics::RingNetwork net(n, optical_cfg(16));
  const auto res = net.execute(sched);
  EXPECT_EQ(res.steps, plan.steps.total_steps);
  EXPECT_GT(res.total_time.count(), 0.0);
}

TEST(Integration, WrhtBeatsAllOpticalBaselinesForResNet50) {
  // Fig. 6 regime at reduced scale: N=256, w=64, ResNet50 payload.
  const std::uint32_t n = 256;
  const std::size_t elements = dnn::resnet50().parameter_count();
  const optics::RingNetwork net(n, optical_cfg());
  const core::WrhtPlan plan = core::plan_wrht(n, 64);

  const double t_wrht =
      net.execute(core::wrht_allreduce(n, elements,
                                       core::WrhtOptions{plan.group_size, 64}))
          .total_time.count();
  const double t_ring =
      net.execute(coll::ring_allreduce(n, elements)).total_time.count();
  const double t_bt =
      net.execute(coll::btree_allreduce(n, elements)).total_time.count();

  EXPECT_LT(t_wrht, t_ring);
  EXPECT_LT(t_wrht, t_bt);
}

TEST(Integration, RingBeatsWrhtAtFewWavelengthsForLargeModels) {
  // The paper's Fig. 5(b) observation: with w=4 and BEiT-sized payloads the
  // Ring's d/N per-step payload wins over WRHT's full-d steps.
  const std::uint32_t n = 256;
  const std::size_t elements = dnn::beit_large().parameter_count();
  const optics::RingNetwork net(n, optical_cfg(4));
  const core::WrhtPlan plan = core::plan_wrht(n, 4);
  const double t_wrht =
      net.execute(core::wrht_allreduce(n, elements,
                                       core::WrhtOptions{plan.group_size, 4}))
          .total_time.count();
  const double t_ring =
      net.execute(coll::ring_allreduce(n, elements)).total_time.count();
  EXPECT_GT(t_wrht, t_ring);
}

TEST(Integration, WrhtTimeFlatInNodeCount) {
  // Fig. 6: WRHT communication time stays nearly constant as N grows.
  const std::size_t elements = dnn::alexnet().parameter_count();
  std::vector<double> times;
  for (const std::uint32_t n : {256u, 512u, 1024u}) {
    const optics::RingNetwork net(n, optical_cfg());
    const core::WrhtPlan plan = core::plan_wrht(n, 64);
    times.push_back(
        net.execute(core::wrht_allreduce(
                        n, elements, core::WrhtOptions{plan.group_size, 64}))
            .total_time.count());
  }
  EXPECT_LT(times.back() / times.front(), 1.5);
}

TEST(Integration, RingTimeGrowsLinearlyInNodeCount) {
  const std::size_t elements = 1'000'000;
  const optics::RingNetwork net256(256, optical_cfg());
  const optics::RingNetwork net512(512, optical_cfg());
  const double t256 =
      net256.execute(coll::ring_allreduce(256, elements)).total_time.count();
  const double t512 =
      net512.execute(coll::ring_allreduce(512, elements)).total_time.count();
  // Step-overhead dominated at this payload: ~2x.
  EXPECT_GT(t512 / t256, 1.5);
}

TEST(Integration, OpticalRingBeatsElectricalRing) {
  // Fig. 7: O-Ring vs E-Ring on the same payload and node count.
  const std::uint32_t n = 128;
  const std::size_t elements = dnn::resnet50().parameter_count();
  const auto sched = coll::ring_allreduce(n, elements);
  const optics::RingNetwork optical(n, optical_cfg());
  const elec::FatTreeNetwork electrical(n, elec::ElectricalConfig{});
  const double t_o = optical.execute(sched).total_time.count();
  const double t_e = electrical.execute(sched).total_time.count();
  EXPECT_LT(t_o, t_e);
}

TEST(Integration, WrhtBeatsElectricalBaselines) {
  const std::uint32_t n = 128;
  const std::size_t elements = dnn::resnet50().parameter_count();
  const optics::RingNetwork optical(n, optical_cfg());
  const elec::FatTreeNetwork electrical(n, elec::ElectricalConfig{});
  const core::WrhtPlan plan = core::plan_wrht(n, 64);
  const double t_wrht =
      optical
          .execute(core::wrht_allreduce(n, elements,
                                        core::WrhtOptions{plan.group_size, 64}))
          .total_time.count();
  const double t_ering =
      electrical.execute(coll::ring_allreduce(n, elements))
          .total_time.count();
  const double t_erd =
      electrical.execute(coll::recursive_doubling_allreduce(n, elements))
          .total_time.count();
  EXPECT_LT(t_wrht, t_ering);
  EXPECT_LT(t_wrht, t_erd);
}

TEST(Integration, TrainingPipelineEndToEnd) {
  // Model zoo -> gradient payload -> optical WRHT -> iteration breakdown.
  const dnn::Model model = dnn::resnet50();
  const std::uint32_t n = 64;
  dnn::TrainingConfig cfg;
  cfg.num_workers = n;
  const core::WrhtPlan plan = core::plan_wrht(n, 64);
  const optics::RingNetwork net(n, optical_cfg());
  const auto res = net.execute(core::wrht_allreduce(
      n, model.parameter_count(), core::WrhtOptions{plan.group_size, 64}));
  const auto iter = dnn::iteration_breakdown(model, cfg, res.total_time);
  EXPECT_GT(iter.compute.count(), 0.0);
  EXPECT_GT(iter.communication.count(), 0.0);
  EXPECT_GT(iter.total().count(), iter.compute.count());
  EXPECT_GT(dnn::epoch_time(model, cfg, res.total_time).count(),
            iter.total().count());
}

TEST(Integration, ConstraintAwarePlanStillCorrectAndFeasible) {
  core::OpticalConstraints constraints;
  constraints.power.laser_power = PowerDbm(7.0);
  const std::uint32_t n = 200;
  const core::WrhtPlan plan = core::plan_wrht(n, 32, constraints);
  const auto sched = core::wrht_allreduce(
      n, 64, core::WrhtOptions{plan.group_size, 32});
  const verify::OracleReport oracle = verify::check_allreduce(sched);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
  optics::OpticalConfig cfg = optical_cfg(32);
  const optics::RingNetwork net(n, cfg);
  const auto res = net.execute(sched);
  // Grouping lightpaths stay within the Eq. 7 analytic bound; the final
  // all-to-all may span up to half the ring (Eq. 7 approximates the
  // hierarchy paths only, see DESIGN.md), so the operational bound is the
  // max of both.
  EXPECT_LE(res.longest_lightpath_hops,
            std::max<std::uint64_t>(
                optics::wrht_max_comm_length(n, plan.group_size), n / 2));
}

}  // namespace
}  // namespace wrht
