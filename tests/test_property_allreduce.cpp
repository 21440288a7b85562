// Parameterized property suites: every algorithm, over sweeps of node
// counts and parameters, must (1) implement exact All-reduce semantics,
// (2) match its closed-form step count, and (3) for WRHT, stay within its
// declared wavelength requirement on the optical ring.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/recursive_doubling.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht {
namespace {

// ---------------------------------------------------------------------------
// Property 1: All-reduce semantics for every (algorithm, N).

using AlgoCase = std::tuple<std::string, std::uint32_t>;

class AllAlgorithmsCorrect : public testing::TestWithParam<AlgoCase> {};

TEST_P(AllAlgorithmsCorrect, ProducesExactGlobalSum) {
  const auto& [name, n] = GetParam();
  core::register_wrht_algorithm();
  coll::AllreduceParams p;
  p.num_nodes = n;
  p.elements = 2 * n + 3;
  p.group_size = name == "hring" ? 4u : (name == "wrht" ? 3u : 0u);
  p.wavelengths = 8;
  const coll::Schedule s = coll::Registry::instance().build(name, p);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllAlgorithmsCorrect,
    testing::Combine(testing::Values("ring", "hring", "btree",
                                     "recursive_doubling", "halving_doubling",
                                     "wrht"),
                     testing::Values(2u, 3u, 4u, 5u, 8u, 12u, 16u, 27u, 32u,
                                     45u, 64u)),
    [](const testing::TestParamInfo<AlgoCase>& param) {
      return std::get<0>(param.param) + "_n" +
             std::to_string(std::get<1>(param.param));
    });

// ---------------------------------------------------------------------------
// Property 2: generated schedule lengths equal the closed forms.

class StepFormulas : public testing::TestWithParam<std::uint32_t> {};

TEST_P(StepFormulas, RingMatches) {
  const std::uint32_t n = GetParam();
  EXPECT_EQ(coll::ring_allreduce(n, 2 * n).num_steps(),
            coll::ring_allreduce_steps(n));
}

TEST_P(StepFormulas, BtreeMatches) {
  const std::uint32_t n = GetParam();
  EXPECT_EQ(coll::btree_allreduce(n, 4).num_steps(),
            coll::btree_allreduce_steps(n));
}

TEST_P(StepFormulas, RecursiveDoublingMatches) {
  const std::uint32_t n = GetParam();
  EXPECT_EQ(coll::recursive_doubling_allreduce(n, 4).num_steps(),
            coll::recursive_doubling_steps(n));
}

TEST_P(StepFormulas, HringMatchesBuilderFormula) {
  const std::uint32_t n = GetParam();
  for (std::uint32_t m : {2u, 3u, 5u}) {
    if (m >= n) continue;
    EXPECT_EQ(coll::hring_allreduce(n, 2 * n, m).num_steps(),
              coll::hring_builder_steps(n, m))
        << "n=" << n << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StepFormulas,
                         testing::Values(2u, 3u, 5u, 8u, 13u, 16u, 21u, 32u,
                                         50u, 64u, 100u));

// ---------------------------------------------------------------------------
// Property 3: WRHT wavelength discipline on the optical ring. Groups as
// wide as the ring (m >= n) follow the same rules as every other point.

using WrhtCase = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class WrhtOptical : public testing::TestWithParam<WrhtCase> {};

TEST_P(WrhtOptical, StaysWithinDeclaredWavelengths) {
  const auto& [n, m, w] = GetParam();
  const core::WrhtStepPlan plan = core::wrht_plan(n, m, w);
  // The declared requirement is the analytic (load) bound; first-fit
  // colouring of the final all-to-all can need up to 1.5x it (DESIGN.md).
  const std::uint64_t operational_bound =
      plan.final_all_to_all ? (3 * plan.wavelengths_required + 1) / 2
                            : plan.wavelengths_required;
  optics::OpticalConfig cfg;
  cfg.wavelengths = w;
  cfg.allow_multi_round_steps = false;  // must fit in single rounds
  const optics::RingNetwork net(n, cfg);
  const auto sched = core::wrht_allreduce(n, 4, core::WrhtOptions{m, w});
  if (plan.wavelengths_required > w) {
    // Declared infeasible: the load alone exceeds the budget.
    EXPECT_THROW((void)net.execute(sched), InfeasibleSchedule);
    return;
  }
  optics::OpticalRunResult res;
  try {
    res = net.execute(sched);
  } catch (const InfeasibleSchedule&) {
    // Only a run past the load bound but within its 1.5x may be rejected.
    EXPECT_GT(operational_bound, w);
    return;
  }
  EXPECT_LE(res.max_wavelengths_used, operational_bound);
  EXPECT_EQ(res.steps, plan.total_steps);
  EXPECT_EQ(res.total_rounds, res.steps);
}

TEST_P(WrhtOptical, StepsMatchPlanEvenWhenStarved) {
  const auto& [n, m, w] = GetParam();
  optics::OpticalConfig cfg;
  cfg.wavelengths = w;
  const optics::RingNetwork net(n, cfg);
  const auto sched = core::wrht_allreduce(n, 4, core::WrhtOptions{m, w});
  const auto res = net.execute(sched);
  EXPECT_EQ(res.steps, core::wrht_plan(n, m, w).total_steps);
  EXPECT_GE(res.total_rounds, res.steps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WrhtOptical,
    testing::Combine(testing::Values(16u, 33u, 64u, 100u),
                     testing::Values(3u, 5u, 9u, 17u),
                     testing::Values(2u, 4u, 8u, 64u)),
    [](const testing::TestParamInfo<WrhtCase>& param) {
      return "n" + std::to_string(std::get<0>(param.param)) + "_m" +
             std::to_string(std::get<1>(param.param)) + "_w" +
             std::to_string(std::get<2>(param.param));
    });

// ---------------------------------------------------------------------------
// Property 4: every registered algorithm's schedule validates and has no
// empty step, so every step is conflict-checkable.

class ScheduleShape : public testing::TestWithParam<std::string> {};

TEST_P(ScheduleShape, NoEmptyStepsAndValidates) {
  core::register_wrht_algorithm();
  coll::AllreduceParams p;
  p.num_nodes = 24;
  p.elements = 48;
  p.group_size = 4;
  p.wavelengths = 8;
  const coll::Schedule s =
      coll::Registry::instance().build(GetParam(), p);
  s.validate();
  EXPECT_GT(s.num_steps(), 0u);
  for (const auto& step : s.steps()) {
    EXPECT_FALSE(step.transfers.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleShape,
                         testing::Values("ring", "hring", "btree",
                                         "recursive_doubling",
                                         "halving_doubling", "wrht"));

}  // namespace
}  // namespace wrht
