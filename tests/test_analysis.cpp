#include "wrht/core/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"

namespace wrht::core {
namespace {

TEST(CeilLog, Values) {
  EXPECT_EQ(ceil_log(2, 1), 1u);
  EXPECT_EQ(ceil_log(2, 2), 1u);
  EXPECT_EQ(ceil_log(2, 3), 2u);
  EXPECT_EQ(ceil_log(2, 1024), 10u);
  EXPECT_EQ(ceil_log(129, 1024), 2u);
  EXPECT_EQ(ceil_log(17, 1024), 3u);
  EXPECT_EQ(ceil_log(33, 1024), 2u);
  EXPECT_EQ(ceil_log(1024, 1024), 1u);
  EXPECT_THROW(ceil_log(1, 8), InvalidArgument);
  EXPECT_THROW(ceil_log(2, 0), InvalidArgument);
}

TEST(WrhtPlan, Table1Headline) {
  // Table 1 row: N=1024, w=64, m=129 -> 3 steps.
  const WrhtStepPlan p = wrht_plan(1024, 129, 64);
  EXPECT_EQ(p.total_steps, 3u);
  EXPECT_TRUE(p.final_all_to_all);
  EXPECT_EQ(p.final_reps, 8u);  // m* = ceil(1024/129)
  EXPECT_EQ(p.grouping_levels, 1u);
  EXPECT_EQ(p.reduce_steps, 2u);
  EXPECT_EQ(p.broadcast_steps, 1u);
  EXPECT_EQ(p.wavelengths_required, 64u);  // floor(129/2)
}

TEST(WrhtPlan, Figure4GroupSizeSweep) {
  // Paper Fig. 4 configurations on 1024 nodes with w = 64.
  EXPECT_EQ(wrht_plan(1024, 17, 64).total_steps, 5u);   // WRHT_0
  EXPECT_EQ(wrht_plan(1024, 33, 64).total_steps, 4u);   // WRHT_1
  EXPECT_EQ(wrht_plan(1024, 65, 64).total_steps, 3u);   // WRHT_2
  EXPECT_EQ(wrht_plan(1024, 129, 64).total_steps, 3u);  // WRHT_3
}

TEST(WrhtPlan, StepsNeverExceedPaperUpperBound) {
  for (std::uint32_t n : {8u, 16u, 100u, 1024u}) {
    for (std::uint32_t m : {2u, 5u, 17u, 129u}) {
      for (std::uint32_t w : {1u, 4u, 64u, 256u}) {
        const WrhtStepPlan p = wrht_plan(n, m, w);
        EXPECT_LE(p.total_steps, wrht_steps_upper(n, m))
            << "n=" << n << " m=" << m << " w=" << w;
        // With the all-to-all ending the paper's 2L-1 form is met exactly.
        if (p.final_all_to_all && p.grouping_levels + 1 == ceil_log(m, n)) {
          EXPECT_EQ(p.total_steps, wrht_steps_upper(n, m) - 1);
        }
      }
    }
  }
}

TEST(WrhtPlan, WavelengthRequirementTracksGroupAndExchange) {
  // m=5 on 15 nodes with w=2: floor(5/2)=2 group lambdas and
  // ceil(3^2/8)=2 for the exchange.
  const WrhtStepPlan p = wrht_plan(15, 5, 2);
  EXPECT_EQ(p.wavelengths_required, 2u);
  // m=33 on 1024 nodes, w=64: group needs 16, exchange impossible ->
  // requirement is the group bound.
  EXPECT_EQ(wrht_plan(1024, 33, 64).wavelengths_required, 16u);
}

/// The plan read off a built hierarchy: the reference the arithmetic
/// wrht_plan must equal field for field.
WrhtStepPlan hierarchy_plan(std::uint32_t num_nodes, std::uint32_t group_size,
                            std::uint32_t wavelengths) {
  const Hierarchy h = build_hierarchy(num_nodes, group_size, wavelengths);
  WrhtStepPlan plan;
  plan.grouping_levels = static_cast<std::uint32_t>(h.levels.size());
  plan.final_all_to_all = h.final_all_to_all;
  plan.final_reps = static_cast<std::uint32_t>(h.final_reps.size());
  plan.reduce_steps = plan.grouping_levels + (h.final_all_to_all ? 1 : 0);
  plan.broadcast_steps = plan.grouping_levels;
  plan.total_steps = plan.reduce_steps + plan.broadcast_steps;
  std::uint64_t lambda = 0;
  for (const Level& level : h.levels) {
    for (const Group& g : level.groups) {
      lambda = std::max(lambda, group_wavelengths(g.members.size()));
    }
  }
  if (h.final_all_to_all) {
    lambda = std::max(lambda, all_to_all_wavelengths(h.final_reps.size()));
  }
  plan.wavelengths_required = std::max<std::uint64_t>(lambda, 1);
  return plan;
}

void expect_plan_matches_hierarchy(std::uint32_t n, std::uint32_t m,
                                   std::uint32_t w) {
  const WrhtStepPlan got = wrht_plan(n, m, w);
  const WrhtStepPlan want = hierarchy_plan(n, m, w);
  ASSERT_TRUE(got.grouping_levels == want.grouping_levels &&
              got.reduce_steps == want.reduce_steps &&
              got.broadcast_steps == want.broadcast_steps &&
              got.total_steps == want.total_steps &&
              got.final_all_to_all == want.final_all_to_all &&
              got.final_reps == want.final_reps &&
              got.wavelengths_required == want.wavelengths_required)
      << "n=" << n << " m=" << m << " w=" << w << ": levels "
      << got.grouping_levels << "/" << want.grouping_levels << ", steps "
      << got.total_steps << "/" << want.total_steps << ", reps "
      << got.final_reps << "/" << want.final_reps << ", lambdas "
      << got.wavelengths_required << "/" << want.wavelengths_required;
}

TEST(WrhtPlan, EqualsTheBuiltHierarchyOnEverySmallConfiguration) {
  for (std::uint32_t n = 2; n <= 300; ++n) {
    for (const std::uint32_t w : {1u, 2u, 3u, 4u, 8u, 16u, 64u}) {
      for (std::uint32_t m = 2; m <= std::min(n, 2 * w + 1); ++m) {
        expect_plan_matches_hierarchy(n, m, w);
      }
    }
  }
}

TEST(WrhtPlan, EqualsTheBuiltHierarchyOnSeededLargeRings) {
  Rng rng(18);
  for (int i = 0; i < 24; ++i) {
    // Log-uniform N up to 2e6, so every order of magnitude is drawn.
    const auto digits = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    std::uint64_t top = 1;
    for (std::uint32_t d = 0; d < digits; ++d) top *= 10;
    const auto n = static_cast<std::uint32_t>(
        rng.uniform_int(2, std::min<std::uint64_t>(2 * top, 2'000'000)));
    const std::uint32_t ws[] = {1, 2, 3, 4, 8, 16, 64, 256};
    const std::uint32_t w = ws[rng.uniform_int(0, 7)];
    // Groups of a few nodes build a hierarchy of N/m vectors; keep m >= 16
    // on the largest rings so the reference stays cheap.
    const std::uint32_t m_lo = n > 100'000 ? std::min(16u, 2 * w + 1) : 2u;
    const auto m = static_cast<std::uint32_t>(
        rng.uniform_int(m_lo, std::max(m_lo, std::min(n, 2 * w + 1))));
    expect_plan_matches_hierarchy(n, m, w);
  }
  expect_plan_matches_hierarchy(1'000'000, 129, 64);
  expect_plan_matches_hierarchy(2'000'000, 2, 1);
}

TEST(WrhtPlan, RejectsWhatBuildHierarchyRejects) {
  const auto message = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "no exception";
  };
  for (const auto& [n, m, w] :
       {std::tuple{1u, 2u, 1u}, std::tuple{8u, 1u, 1u},
        std::tuple{8u, 2u, 0u}, std::tuple{0u, 0u, 0u}}) {
    EXPECT_EQ(message([&] { (void)wrht_plan(n, m, w); }),
              message([&] { (void)build_hierarchy(n, m, w); }))
        << "n=" << n << " m=" << m << " w=" << w;
  }
}

TEST(Lemma1, LowerBoundFormula) {
  // 2 * ceil(log_{2w+1} N).
  EXPECT_EQ(wrht_min_steps(1024, 64), 4u);   // log_129(1024) -> 2 levels
  EXPECT_EQ(wrht_min_steps(1024, 2), 10u);   // log_5(1024) -> 5
  EXPECT_EQ(wrht_min_steps(15, 2), 4u);
  EXPECT_EQ(wrht_min_steps(2, 1), 2u);
  EXPECT_THROW(wrht_min_steps(8, 0), InvalidArgument);
}

TEST(Lemma1, BoundsEveryPlanWithinBudget) {
  // No plan with m <= 2w+1 beats the Lemma 1 bound by more than the
  // all-to-all saving of one step.
  for (std::uint32_t n : {16u, 64u, 256u, 1024u}) {
    for (std::uint32_t w : {1u, 2u, 8u, 64u}) {
      const std::uint64_t bound = wrht_min_steps(n, w);
      for (std::uint32_t m = 2; m <= std::min(n, 2 * w + 1); ++m) {
        const WrhtStepPlan p = wrht_plan(n, m, w);
        EXPECT_GE(p.total_steps + 1, bound)
            << "n=" << n << " w=" << w << " m=" << m;
      }
    }
  }
}

TEST(Eq6, CommTime) {
  TimeModel model;
  model.per_step_overhead = Seconds(25e-6);
  model.bytes_per_second = 40e9;
  // 3 steps, 40 GB payload: data 3 s + overhead 75 us.
  const Seconds t = comm_time(3, Bytes(40'000'000'000ull), model);
  EXPECT_NEAR(t.count(), 3.0 + 75e-6, 1e-12);
}

TEST(Eq6, ZeroPayloadIsPureOverhead) {
  TimeModel model;
  model.per_step_overhead = Seconds(1e-3);
  const Seconds t = comm_time(5, Bytes(0), model);
  EXPECT_DOUBLE_EQ(t.count(), 5e-3);
}

TEST(Theorem1, OptimalTimeUsesLemma1Steps) {
  TimeModel model;
  model.per_step_overhead = Seconds(25e-6);
  model.bytes_per_second = 40e9;
  const Bytes d(100'000'000);
  const Seconds opt = wrht_optimal_time(1024, 64, d, model);
  EXPECT_DOUBLE_EQ(opt.count(),
                   comm_time(wrht_min_steps(1024, 64), d, model).count());
}

TEST(Theorem1, LowerBoundsRealisedPlans) {
  TimeModel model;
  const Bytes d(1'000'000);
  for (std::uint32_t w : {2u, 8u, 64u}) {
    const Seconds bound = wrht_optimal_time(1024, w, d, model);
    for (std::uint32_t m = 2; m <= 2 * w + 1; m += 3) {
      const WrhtStepPlan p = wrht_plan(1024, m, w);
      // Plans may save one step via the all-to-all; allow that margin.
      const Seconds t = comm_time(p.total_steps + 1, d, model);
      EXPECT_GE(t.count(), bound.count()) << "w=" << w << " m=" << m;
    }
  }
}

TEST(Eq6, Validation) {
  TimeModel model;
  model.bytes_per_second = 0.0;
  EXPECT_THROW(comm_time(1, Bytes(1), model), InvalidArgument);
}

}  // namespace
}  // namespace wrht::core
