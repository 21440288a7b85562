#include "wrht/optical/ring_network.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/collectives/hring_allreduce.hpp"
#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/analysis.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::optics {
namespace {

OpticalConfig paper_config() { return OpticalConfig{}; }

TEST(OpticalConfig, RateConventions) {
  OpticalConfig c;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 40e9);  // paper convention
  c.convention = net::RateConvention::kStrictBits;
  EXPECT_DOUBLE_EQ(c.bytes_per_second(), 5e9);
}

TEST(RingNetwork, RingAllreduceUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::ring_allreduce(16, 32));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);  // never split
  EXPECT_EQ(res.steps, 30u);
}

TEST(RingNetwork, BtreeUsesOneWavelength) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  EXPECT_EQ(res.max_wavelengths_used, 1u);
  EXPECT_EQ(res.total_rounds, res.steps);
}

TEST(RingNetwork, WrhtWavelengthUsageMatchesRequirement) {
  // m=129 on 1024 nodes needs exactly floor(129/2) = 64 wavelengths.
  OpticalConfig cfg = paper_config();
  const RingNetwork net(1024, cfg);
  const auto sched = core::wrht_allreduce(1024, 64, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);
  EXPECT_EQ(res.max_wavelengths_used, 64u);
  EXPECT_EQ(res.total_rounds, res.steps);  // fits the budget, no splitting
}

TEST(RingNetwork, WrhtTimeMatchesClosedForm) {
  // Simulated time must equal Eq. (6) exactly for WRHT (single-round steps,
  // constant payload d).
  OpticalConfig cfg = paper_config();
  const std::size_t elements = 1'000'000;
  const RingNetwork net(1024, cfg);
  const auto sched =
      core::wrht_allreduce(1024, elements, core::WrhtOptions{129, 64});
  const auto res = net.execute(sched);

  core::TimeModel model;
  model.per_step_overhead = cfg.mrr_reconfig_delay + cfg.oeo_delay;
  model.bytes_per_second = cfg.bytes_per_second();
  const Seconds expected = core::comm_time(
      res.steps, Bytes(elements * cfg.bytes_per_element), model);
  EXPECT_NEAR(res.total_time.count(), expected.count(), 1e-12);
}

TEST(RingNetwork, RingTimeMatchesClosedForm) {
  OpticalConfig cfg = paper_config();
  const std::uint32_t n = 64;
  const std::size_t elements = 64 * 1000;
  const RingNetwork net(n, cfg);
  const auto res = net.execute(coll::ring_allreduce(n, elements));
  // 2(n-1) steps, each a + (d/n)/B.
  const double per_step = cfg.mrr_reconfig_delay.count() +
                          cfg.oeo_delay.count() +
                          (elements / n * 4.0) / cfg.bytes_per_second();
  EXPECT_NEAR(res.total_time.count(), 2.0 * (n - 1) * per_step, 1e-9);
}

TEST(RingNetwork, StarvedStepsSplitIntoRounds) {
  // A WRHT group step with floor(m/2) = 4 required wavelengths on a 2-lambda
  // fiber must split into 2 rounds, doubling the per-step overhead.
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  const auto res = net.execute(sched);
  EXPECT_GT(res.total_rounds, res.steps);
  EXPECT_LE(res.max_wavelengths_used, 2u);
}

TEST(RingNetwork, SplittingDisabledThrows) {
  OpticalConfig cfg = paper_config();
  cfg.wavelengths = 2;
  cfg.allow_multi_round_steps = false;
  const RingNetwork net(27, cfg);
  const auto sched = core::wrht_allreduce(27, 8, core::WrhtOptions{9, 2});
  EXPECT_THROW(net.execute(sched), InfeasibleSchedule);
}

TEST(RingNetwork, StrictBitsSlowsSerializationOnly) {
  OpticalConfig paper = paper_config();
  OpticalConfig strict = paper_config();
  strict.convention = net::RateConvention::kStrictBits;
  const std::size_t elements = 10'000'000;
  const auto sched = core::wrht_allreduce(16, elements, core::WrhtOptions{5, 8});
  const RingNetwork net_p(16, paper);
  const RingNetwork net_s(16, strict);
  const double tp = net_p.execute(sched).total_time.count();
  const double ts = net_s.execute(sched).total_time.count();
  const double overhead = static_cast<double>(sched.num_steps()) *
                          (paper.mrr_reconfig_delay.count() +
                           paper.oeo_delay.count());
  EXPECT_NEAR((ts - overhead) / (tp - overhead), 8.0, 1e-6);
}

TEST(RingNetwork, LongestLightpathReported) {
  const RingNetwork net(15, paper_config());
  const auto sched = core::wrht_allreduce(15, 4, core::WrhtOptions{5, 2});
  const auto res = net.execute(sched);
  // Group members are <= 2 hops from the rep; the all-to-all between reps
  // 2, 7, 12 travels 5 hops.
  EXPECT_EQ(res.longest_lightpath_hops, 5u);
}

TEST(RingNetwork, PatternCacheDoesNotChangeResults) {
  // Execute twice; cached second run must agree exactly.
  const RingNetwork net(32, paper_config());
  const auto sched = coll::ring_allreduce(32, 320);
  const auto a = net.execute(sched);
  const auto b = net.execute(sched);
  EXPECT_DOUBLE_EQ(a.total_time.count(), b.total_time.count());
  EXPECT_EQ(a.max_wavelengths_used, b.max_wavelengths_used);
}

TEST(RingNetwork, EventKernelDrivesSteps) {
  const RingNetwork net(16, paper_config());
  const auto res = net.execute(coll::btree_allreduce(16, 8));
  // One launch event per step plus the initial kick-off.
  EXPECT_EQ(res.events_fired, res.steps + 1);
}

TEST(RingNetwork, HringRunsWithinBudget) {
  const RingNetwork net(20, paper_config());
  const auto res = net.execute(coll::hring_allreduce(20, 40, 5));
  EXPECT_LE(res.max_wavelengths_used, 4u);
  EXPECT_EQ(res.steps, coll::hring_builder_steps(20, 5));
}

void expect_rejected_delay(const OpticalConfig& config,
                           const std::string& field) {
  try {
    (void)RingNetwork(8, config);
    ADD_FAILURE() << "a negative " << field << " was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(RingNetwork, Validation) {
  OpticalConfig cfg;
  cfg.wavelengths = 0;
  EXPECT_THROW(RingNetwork(8, cfg), InvalidArgument);
  const RingNetwork net(8, paper_config());
  EXPECT_THROW(net.execute(coll::ring_allreduce(16, 32)), InvalidArgument);
  // Negative delays are config errors that name their field, not a
  // failure deep in the run.
  expect_rejected_delay(
      paper_config().with_mrr_reconfig_delay(Seconds(-1e-3)),
      "mrr_reconfig_delay");
  expect_rejected_delay(paper_config().with_oeo_delay(Seconds(-1e-9)),
                        "oeo_delay");
}

// ------------------------------------------------- pricing per detail level

/// A run's outcome: its result, or the message it threw.
struct Outcome {
  std::optional<OpticalRunResult> result;
  std::string error;
};

Outcome attempt(const std::function<OpticalRunResult()>& run) {
  try {
    return Outcome{run(), ""};
  } catch (const Error& e) {
    return Outcome{std::nullopt, e.what()};
  }
}

/// Everything a run prices, bit for bit.
void expect_same_pricing(const Outcome& got, const Outcome& want,
                         const std::string& where) {
  ASSERT_EQ(got.error, want.error) << where;
  if (!want.result) return;
  const OpticalRunResult& g = *got.result;
  const OpticalRunResult& w = *want.result;
  EXPECT_EQ(g.total_time.count(), w.total_time.count()) << where;
  EXPECT_EQ(g.steps, w.steps) << where;
  EXPECT_EQ(g.total_rounds, w.total_rounds) << where;
  EXPECT_EQ(g.max_wavelengths_used, w.max_wavelengths_used) << where;
  EXPECT_EQ(g.longest_lightpath_hops, w.longest_lightpath_hops) << where;
  EXPECT_EQ(g.reconfigurations, w.reconfigurations) << where;
  EXPECT_EQ(g.retuned_mrrs, w.retuned_mrrs) << where;
  EXPECT_EQ(g.overlap_hidden.count(), w.overlap_hidden.count()) << where;
  ASSERT_EQ(g.step_costs.size(), w.step_costs.size()) << where;
  for (std::size_t s = 0; s < w.step_costs.size(); ++s) {
    const StepCost& a = g.step_costs[s];
    const StepCost& b = w.step_costs[s];
    EXPECT_TRUE(a.label == b.label && a.start == b.start &&
                a.duration == b.duration && a.rounds == b.rounds &&
                a.wavelengths_used == b.wavelengths_used &&
                a.max_transfer_elements == b.max_transfer_elements)
        << where << ": step " << s;
  }
}

/// Runs `execute` at every detail level an optical engine prices at:
/// unobserved, counters only, routed (trace and occupancy), observed
/// (trace, transfer log and occupancy) and blamed (a transfer log that
/// diag::build_blame then reads).
template <typename Execute>
std::vector<Outcome> at_every_detail(const Execute& execute) {
  std::vector<Outcome> out;
  out.push_back(attempt([&] { return execute(obs::Probe{}); }));
  out.push_back(attempt([&] {
    obs::Counters counters;
    obs::Probe probe;
    probe.counters = &counters;
    return execute(probe);
  }));
  for (const bool logged : {false, true}) {
    out.push_back(attempt([&] {
      obs::ChromeTraceSink trace("pricing");
      obs::OccupancySampler occupancy;
      obs::TransferLog log;
      obs::Probe probe;
      probe.trace = &trace;
      probe.occupancy = &occupancy;
      if (logged) probe.transfers = &log;
      return execute(probe);
    }));
  }
  out.push_back(attempt([&] {
    obs::TransferLog log;
    obs::Probe probe;
    probe.transfers = &log;
    const OpticalRunResult result = execute(probe);
    EXPECT_EQ(diag::build_blame(log).total_time.count(),
              result.total_time.count());
    return result;
  }));
  return out;
}

constexpr net::ReconfigPolicy kPolicies[] = {
    net::ReconfigPolicy::kEveryRound, net::ReconfigPolicy::kOnRetune,
    net::ReconfigPolicy::kOverlapped};

TEST(RingNetwork, EveryDetailLevelPricesAlike) {
  // Unobserved and counters-only runs price from the RWA's placements, a
  // routed run from its hop-ordered lists: both must price the same steps,
  // multi-round ones included, and throw the same errors.
  std::size_t multi_round = 0;
  for (const std::uint32_t n : {8u, 33u, 64u}) {
    const std::size_t elements = 3 * std::size_t{n} + 5;
    for (const std::uint32_t w : {1u, 4u, 64u}) {
      const std::vector<std::pair<std::string, coll::Schedule>> schedules = {
          {"ring", coll::ring_allreduce(n, elements)},
          {"hring", coll::hring_allreduce(n, elements, 5)},
          {"btree", coll::btree_allreduce(n, elements)},
          {"wrht", core::wrht_allreduce(n, elements,
                                        core::WrhtOptions{9, w})}};
      for (const auto& [name, schedule] : schedules) {
        for (const net::ReconfigPolicy policy : kPolicies) {
          for (const bool capacity : {true, false}) {
            for (const RwaPolicy rwa :
                 {RwaPolicy::kFirstFit, RwaPolicy::kRandomFit}) {
              OpticalConfig config = paper_config();
              config.wavelengths = w;
              config.reconfig_policy = policy;
              config.validate_node_capacity = capacity;
              config.rwa_policy = rwa;
              config.rwa_threads = 1;
              const std::string where =
                  name + " N=" + std::to_string(n) + " w=" +
                  std::to_string(w) + " " + net::to_string(policy) +
                  (capacity ? " capacity" : "") +
                  (rwa == RwaPolicy::kFirstFit ? " first-fit" : " random-fit");
              // A fresh engine per level, then (first-fit patterns are
              // cached) one engine through every level and back, so cached
              // patterns are re-priced on hit.
              const auto fresh = [&](const obs::Probe& probe) {
                Rng rng(n + w);
                return RingNetwork(n, config).execute(schedule, probe, &rng);
              };
              const std::vector<Outcome> want = at_every_detail(fresh);
              for (std::size_t level = 0; level < want.size(); ++level) {
                expect_same_pricing(want[level], want[0],
                                    where + " level " + std::to_string(level));
              }
              if (rwa == RwaPolicy::kFirstFit) {
                const RingNetwork shared(n, config);
                const auto reused = [&](const obs::Probe& probe) {
                  return shared.execute(schedule, probe);
                };
                const std::vector<Outcome> again = at_every_detail(reused);
                for (std::size_t level = 0; level < again.size(); ++level) {
                  expect_same_pricing(
                      again[level], want[0],
                      where + " reused level " + std::to_string(level));
                }
                expect_same_pricing(attempt([&] { return reused({}); }),
                                    want[0], where + " reused lean");
              }
              if (want[0].result && want[0].result->total_rounds >
                                        want[0].result->steps) {
                ++multi_round;
              }
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(multi_round, 50u);
}

TEST(TorusNetwork, EveryDetailLevelPricesAlike) {
  std::size_t multi_round = 0;
  for (const auto& [rows, cols] : {std::pair{8u, 8u}, std::pair{6u, 10u}}) {
    const topo::Torus torus(rows, cols);
    for (const std::uint32_t w : {1u, 4u, 64u}) {
      const coll::Schedule schedule = core::torus_wrht_allreduce(
          torus, 3 * std::size_t{torus.size()} + 5, core::WrhtOptions{5, w});
      for (const net::ReconfigPolicy policy : kPolicies) {
        for (const bool capacity : {true, false}) {
          OpticalConfig config = paper_config();
          config.wavelengths = w;
          config.reconfig_policy = policy;
          config.validate_node_capacity = capacity;
          config.rwa_threads = 1;
          const std::string where =
              std::to_string(rows) + "x" + std::to_string(cols) + " w=" +
              std::to_string(w) + " " + net::to_string(policy) +
              (capacity ? " capacity" : "");
          const TorusNetwork engine(torus, config);
          const std::vector<Outcome> want =
              at_every_detail([&](const obs::Probe& probe) {
                return engine.execute(schedule, probe);
              });
          for (std::size_t level = 0; level < want.size(); ++level) {
            expect_same_pricing(want[level], want[0],
                                where + " level " + std::to_string(level));
          }
          if (want[0].result &&
              want[0].result->total_rounds > want[0].result->steps) {
            ++multi_round;
          }
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(multi_round, 10u);
}

TEST(RingNetwork, SplittingOffMessagesAreTheSameAtEveryDetailLevel) {
  OpticalConfig config = paper_config();
  config.wavelengths = 1;
  config.allow_multi_round_steps = false;
  const coll::Schedule flat =
      core::wrht_allreduce(27, 8, core::WrhtOptions{9, 1});
  for (const Outcome& outcome : at_every_detail([&](const obs::Probe& probe) {
         return RingNetwork(27, config).execute(flat, probe);
       })) {
    EXPECT_EQ(outcome.error,
              "RingNetwork: step 'reduce level 0' needs more than 1 "
              "wavelengths (lease full) and multi-round splitting is "
              "disabled");
  }
  const topo::Torus torus(6, 10);
  const coll::Schedule grid =
      core::torus_wrht_allreduce(torus, 60, core::WrhtOptions{5, 1});
  for (const Outcome& outcome : at_every_detail([&](const obs::Probe& probe) {
         return TorusNetwork(torus, config).execute(grid, probe);
       })) {
    EXPECT_EQ(outcome.error,
              "TorusNetwork: step 'row reduce level 0' on row 0 needs more "
              "than 1 wavelengths (lease full) and multi-round splitting "
              "is disabled");
  }
}

}  // namespace
}  // namespace wrht::optics
