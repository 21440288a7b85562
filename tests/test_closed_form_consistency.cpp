// Consistency property: whenever the wavelength budget carries every step
// in a single round, the simulated optical time equals the closed-form
// Eq. (6) (sum over non-empty steps of a + max_payload/B) — for EVERY
// registered algorithm. The closed form comes from core::comm_time, which
// is written independently of the engines' net::RoundClock, as
// verify::check_differential does. This pins the simulator to the paper's
// analytical model on the configurations the paper evaluates.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "wrht/collectives/registry.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht {
namespace {

using Case = std::tuple<std::string, std::uint32_t, std::size_t>;

/// Eq. (6) over the non-empty steps of `schedule`: one core::comm_time
/// step each, carrying the step's widest transfer.
double eq6(const coll::Schedule& schedule, const optics::OpticalConfig& cfg) {
  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  double total = 0.0;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    if (schedule.steps()[s].transfers.empty()) continue;
    const Bytes payload{
        static_cast<std::uint64_t>(schedule.max_transfer_elements(s)) *
        cfg.bytes_per_element};
    total += core::comm_time(1, payload, model).count();
  }
  return total;
}

class ClosedFormConsistency : public testing::TestWithParam<Case> {};

TEST_P(ClosedFormConsistency, SimulatorMatchesEq6WhenNoSplitting) {
  const auto& [name, n, elements] = GetParam();
  core::register_wrht_algorithm();

  coll::AllreduceParams p;
  p.num_nodes = n;
  p.elements = elements;
  p.group_size = name == "hring" ? 5u : 0u;
  p.wavelengths = 64;
  const coll::Schedule sched = coll::Registry::instance().build(name, p);

  optics::OpticalConfig cfg;
  cfg.wavelengths = 64;
  const optics::RingNetwork net(n, cfg);
  const auto res = net.execute(sched);

  // The grid is chosen so the budget never splits a step.
  for (const optics::StepCost& cost : res.step_costs) {
    ASSERT_LE(cost.rounds, 1u) << "step '" << cost.label << "' split";
  }
  EXPECT_NEAR(res.total_time.count(), eq6(sched, cfg),
              1e-12 * res.total_time.count() + 1e-15)
      << name << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosedFormConsistency,
    testing::Combine(testing::Values("ring", "hring", "btree",
                                     "recursive_doubling", "halving_doubling",
                                     "wrht"),
                     testing::Values(16u, 33u, 64u, 128u),
                     testing::Values(512u, 100'000u)),
    [](const testing::TestParamInfo<Case>& param) {
      return std::get<0>(param.param) + "_n" +
             std::to_string(std::get<1>(param.param)) + "_e" +
             std::to_string(std::get<2>(param.param));
    });

TEST(ClosedFormConsistency, EstimateCountsEmptyStepsAsFree) {
  coll::Schedule s("manual", 4, 8);
  s.add_step();  // empty
  s.add_step().transfers.push_back(
      coll::Transfer{0, 1, 0, 8, coll::TransferKind::kReduce, {}});
  optics::OpticalConfig cfg;
  const optics::RingNetwork net(4, cfg);
  // One Eq. (6) step of 8 four-byte elements.
  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  const double one_step = core::comm_time(1, Bytes{32}, model).count();
  EXPECT_DOUBLE_EQ(eq6(s, cfg), one_step);
  EXPECT_DOUBLE_EQ(net.execute(s).total_time.count(), one_step);
}

}  // namespace
}  // namespace wrht
