#include "wrht/optical/torus_network.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/net/round_clock.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {
namespace {

using topo::Torus;

OpticalConfig cfg(std::uint32_t w = 8) {
  OpticalConfig c;
  c.wavelengths = w;
  return c;
}

TEST(TorusNetwork, ExecutesTorusWrht) {
  const Torus torus(4, 8);
  const TorusNetwork net(torus, cfg());
  const auto sched =
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 8});
  const auto res = net.execute(sched);
  EXPECT_EQ(res.steps, sched.num_steps());
  EXPECT_GT(res.total_time.count(), 0.0);
  EXPECT_GE(res.total_rounds, res.steps);
}

TEST(TorusNetwork, RowsRunConcurrently) {
  // Two transfers in different rows cost the same as one: the rings are
  // independent.
  const Torus torus(4, 8);
  const TorusNetwork net(torus, cfg());
  coll::Schedule one("one", torus.size(), 100);
  one.add_step().transfers.push_back(coll::Transfer{
      torus.node_at(0, 0), torus.node_at(0, 3), 0, 100,
      coll::TransferKind::kReduce, {}});
  coll::Schedule two("two", torus.size(), 100);
  auto& step = two.add_step();
  step.transfers.push_back(coll::Transfer{
      torus.node_at(0, 0), torus.node_at(0, 3), 0, 100,
      coll::TransferKind::kReduce, {}});
  step.transfers.push_back(coll::Transfer{
      torus.node_at(2, 0), torus.node_at(2, 3), 0, 100,
      coll::TransferKind::kReduce, {}});
  EXPECT_DOUBLE_EQ(net.execute(one).total_time.count(),
                   net.execute(two).total_time.count());
}

TEST(TorusNetwork, ColumnTransfersUseColumnRing) {
  const Torus torus(4, 8);
  const TorusNetwork net(torus, cfg());
  coll::Schedule s("col", torus.size(), 100);
  // Column hop 0->3 on a 4-ring: shortest path is 1 hop (wraparound).
  s.add_step().transfers.push_back(coll::Transfer{
      torus.node_at(0, 5), torus.node_at(3, 5), 0, 100,
      coll::TransferKind::kReduce, {}});
  const auto res = net.execute(s);
  EXPECT_EQ(res.longest_lightpath_hops, 1u);
}

TEST(TorusNetwork, RejectsDiagonalTransfers) {
  const Torus torus(4, 4);
  const TorusNetwork net(torus, cfg());
  coll::Schedule s("diag", torus.size(), 10);
  s.add_step().transfers.push_back(coll::Transfer{
      torus.node_at(0, 0), torus.node_at(1, 1), 0, 10,
      coll::TransferKind::kReduce, {}});
  EXPECT_THROW(net.execute(s), InfeasibleSchedule);
}

TEST(TorusNetwork, TimeMatchesStepArithmetic) {
  // One row transfer: reconfig + oeo + serialization.
  const Torus torus(3, 6);
  const TorusNetwork net(torus, cfg());
  coll::Schedule s("one", torus.size(), 1'000'000);
  s.add_step().transfers.push_back(coll::Transfer{
      torus.node_at(1, 0), torus.node_at(1, 2), 0, 1'000'000,
      coll::TransferKind::kReduce, {}});
  const auto res = net.execute(s);
  EXPECT_NEAR(res.total_time.count(), 25e-6 + 497e-15 + 4e6 / 40e9, 1e-12);
}

TEST(TorusNetwork, StarvedRingSplitsIntoRounds) {
  const Torus torus(2, 16);
  const TorusNetwork net(torus, cfg(1));
  // Three nested lightpaths toward one node in a row need 3 lambdas; with
  // one, the ring serializes into rounds.
  coll::Schedule s("nested", torus.size(), 10);
  auto& step = s.add_step();
  for (std::uint32_t c = 1; c <= 3; ++c) {
    step.transfers.push_back(coll::Transfer{
        torus.node_at(0, 8 - c), torus.node_at(0, 8), 0, 10,
        coll::TransferKind::kReduce, {}});
  }
  const auto res = net.execute(s);
  EXPECT_GT(res.total_rounds, 1u);
}

/// Four nested clockwise transfers 0->4 ... 3->7: they share segment 3,
/// so one wavelength carries them only in four rounds.
coll::Schedule nested_row(std::uint32_t nodes) {
  coll::Schedule s("nested", nodes, 10);
  auto& step = s.add_step();
  step.label = "nested row 0";
  for (topo::NodeId i = 0; i < 4; ++i) {
    step.transfers.push_back(coll::Transfer{
        i, i + 4, 0, 10, coll::TransferKind::kReduce, {}});
  }
  return s;
}

void expect_infeasible(const std::function<void()>& run,
                       const std::vector<std::string>& names) {
  try {
    run();
    ADD_FAILURE() << "a step needing 4 rounds ran with splitting off";
  } catch (const InfeasibleSchedule& e) {
    for (const std::string& name : names) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(TorusNetwork, HonoursMultiRoundSplittingFlagLikeTheRing) {
  const coll::Schedule sched = nested_row(64);
  OpticalConfig config = cfg(1);
  config.allow_multi_round_steps = false;
  for (const RwaPolicy policy :
       {RwaPolicy::kFirstFit, RwaPolicy::kRandomFit}) {
    config.rwa_policy = policy;
    Rng rng(3);
    const RingNetwork ring(64, config);
    const TorusNetwork torus(Torus(8, 8), config);
    expect_infeasible([&] { (void)ring.execute(sched, &rng); },
                      {"'nested row 0'", "1 wavelengths", "lease"});
    expect_infeasible([&] { (void)torus.execute(sched, &rng); },
                      {"'nested row 0'", "row 0", "1 wavelengths", "lease",
                       "multi-round splitting is disabled"});
  }

  config.allow_multi_round_steps = true;
  config.rwa_policy = RwaPolicy::kFirstFit;
  const OpticalRunResult ring = RingNetwork(64, config).execute(sched);
  const OpticalRunResult torus =
      TorusNetwork(Torus(8, 8), config).execute(sched);
  EXPECT_EQ(ring.total_rounds, 4u);
  EXPECT_EQ(torus.total_rounds, 4u);
  EXPECT_DOUBLE_EQ(torus.total_time.count(), ring.total_time.count());
  EXPECT_NEAR(torus.total_time.count(), 1.0e-4, 1e-8);  // 4 x 25 us

  // A step that fits one round prices the same with the flag off.
  config.wavelengths = 4;
  const OpticalRunResult on = TorusNetwork(Torus(8, 8), config).execute(sched);
  config.allow_multi_round_steps = false;
  const OpticalRunResult off =
      TorusNetwork(Torus(8, 8), config).execute(sched);
  EXPECT_EQ(off.total_rounds, 1u);
  EXPECT_DOUBLE_EQ(off.total_time.count(), on.total_time.count());
  EXPECT_EQ(off.max_wavelengths_used, on.max_wavelengths_used);
}

/// A 6 x 10 torus step whose rows carry three patterns (rows 0 and 3 the
/// same list with different counts) and whose column 7 carries row 4's
/// local list on a 6-node ring, where it routes differently.
coll::Schedule shared_patterns(const Torus& torus) {
  coll::Schedule s("shares", torus.size(), 1000);
  for (int copy = 0; copy < 2; ++copy) {
    auto& step = s.add_step();
    step.label = "shares " + std::to_string(copy);
    const auto add = [&](std::uint32_t r0, std::uint32_t c0, std::uint32_t r1,
                         std::uint32_t c1, std::size_t count) {
      step.transfers.push_back(coll::Transfer{
          torus.node_at(r0, c0), torus.node_at(r1, c1), 0, count,
          coll::TransferKind::kReduce, {}});
    };
    for (const std::uint32_t c : {1u, 2u, 3u, 8u}) add(0, c, 0, 5, 100 * c);
    for (std::uint32_t c = 0; c < 5; ++c) add(1, c, 1, c + 1, 10 + c);
    for (const std::uint32_t r : {0u, 1u, 2u}) add(r, 7, 4, 7, 7 + r);
    for (const std::uint32_t c : {1u, 2u, 3u, 8u}) {
      add(3, c, 3, 5, 1000 - 100 * c);
    }
    for (const std::uint32_t c : {0u, 1u, 2u}) add(4, c, 4, 4, 50 + c);
  }
  return s;
}

TEST(TorusNetwork, DistinctSharesPriceLikeOneRwaPerShare) {
  const Torus torus(6, 10);
  const coll::Schedule sched = shared_patterns(torus);
  for (const net::ReconfigPolicy policy :
       {net::ReconfigPolicy::kEveryRound, net::ReconfigPolicy::kOverlapped}) {
    OpticalConfig config = cfg(2);
    config.reconfig_policy = policy;
    obs::TransferLog log;
    obs::Probe probe;
    probe.transfers = &log;
    const OpticalRunResult got =
        TorusNetwork(torus, config).execute(sched, probe);

    // Reference: one assign_rounds per share, rings in slot order (the
    // columns, then the rows), each priced from its own counts.
    const topo::Ring row_ring(torus.cols());
    const topo::Ring col_ring(torus.rows());
    std::vector<obs::RoundTrace> rounds_want;
    std::vector<obs::TransferTrace> transfers_want;
    std::vector<std::string> lanes;
    Seconds now(0.0);
    Seconds previous(0.0);
    std::uint32_t total_rounds = 0;
    std::uint64_t charges = 0;
    std::uint32_t longest = 0;
    ASSERT_EQ(got.step_costs.size(), sched.num_steps());
    for (std::uint32_t s = 0; s < sched.num_steps(); ++s) {
      const auto& step = sched.steps()[s].transfers;
      StepCost want;
      std::uint32_t max_rounds = 0;
      std::uint64_t max_charges = 0;
      Seconds slowest(0.0);
      for (std::uint32_t slot = 0; slot < torus.cols() + torus.rows();
           ++slot) {
        const bool row = slot >= torus.cols();
        const std::uint32_t index = row ? slot - torus.cols() : slot;
        std::vector<coll::Transfer> share;
        std::vector<std::size_t> source;
        for (std::size_t i = 0; i < step.size(); ++i) {
          const coll::Transfer& t = step[i];
          const bool on_row = torus.row_of(t.src) == torus.row_of(t.dst);
          if (row ? !(on_row && torus.row_of(t.src) == index)
                  : on_row || torus.col_of(t.src) != index) {
            continue;
          }
          coll::Transfer local = t;
          local.src = row ? torus.col_of(t.src) : torus.row_of(t.src);
          local.dst = row ? torus.col_of(t.dst) : torus.row_of(t.dst);
          local.direction = std::nullopt;
          share.push_back(local);
          source.push_back(i);
        }
        if (share.empty()) continue;
        const std::string lane = (row ? "row" : "col") + std::to_string(index);
        lanes.push_back(lane);
        const topo::Ring& ring = row ? row_ring : col_ring;
        const RoundsResult rr =
            assign_rounds(ring, share, config.rwa_options());
        const HopOrderedRounds lists = hop_ordered(ring, share, rr);
        net::RoundClock clock(config.reconfig_policy,
                              config.mrr_reconfig_delay, config.oeo_delay,
                              previous);
        Seconds ring_time(0.0);
        for (std::uint32_t r = 0; r < rr.rounds; ++r) {
          std::size_t max_elements = 0;
          for (const std::size_t idx : lists.rounds[r]) {
            max_elements = std::max(max_elements, share[idx].count);
          }
          obs::RoundTrace round;
          round.step = s;
          round.lane = lane;
          round.round = r;
          round.serialization = config.serialization_time(max_elements);
          rounds_want.push_back(round);
          for (std::size_t j = 0; j < lists.rounds[r].size(); ++j) {
            const coll::Transfer& t = step[source[lists.rounds[r][j]]];
            const Lightpath& path = lists.paths[r][j];
            obs::TransferTrace transfer;
            transfer.step = s;
            transfer.round = r;
            transfer.src = t.src;
            transfer.dst = t.dst;
            transfer.elements = t.count;
            transfer.wavelength = path.wavelength;
            transfer.direction = channel_of(path).direction;
            transfers_want.push_back(transfer);
            longest = std::max(longest, path.hops);
          }
          ring_time += clock.next(round.serialization, true).duration;
          want.max_transfer_elements =
              std::max(want.max_transfer_elements, max_elements);
        }
        want.wavelengths_used =
            std::max(want.wavelengths_used, rr.wavelengths_used);
        max_rounds = std::max(max_rounds, rr.rounds);
        max_charges = std::max(max_charges, clock.charges());
        slowest = std::max(slowest, ring_time);
      }
      const StepCost& cost = got.step_costs[s];
      EXPECT_EQ(cost.label, sched.steps()[s].label);
      EXPECT_EQ(cost.start.count(), now.count()) << "step " << s;
      EXPECT_EQ(cost.duration.count(), slowest.count()) << "step " << s;
      EXPECT_EQ(cost.rounds, max_rounds) << "step " << s;
      EXPECT_EQ(cost.wavelengths_used, want.wavelengths_used) << "step " << s;
      EXPECT_EQ(cost.max_transfer_elements, want.max_transfer_elements)
          << "step " << s;
      total_rounds += max_rounds;
      charges += max_charges;
      now += slowest;
      previous = slowest;
    }
    EXPECT_EQ(got.total_rounds, total_rounds);
    EXPECT_GT(total_rounds, sched.num_steps());  // some ring splits
    EXPECT_EQ(got.reconfigurations, charges);
    EXPECT_EQ(got.longest_lightpath_hops, longest);
    EXPECT_EQ(got.total_time.count(), now.count());

    ASSERT_EQ(log.rounds().size(), rounds_want.size());
    for (std::size_t i = 0; i < rounds_want.size(); ++i) {
      const obs::RoundTrace& g = log.rounds()[i];
      const obs::RoundTrace& w = rounds_want[i];
      EXPECT_TRUE(g.step == w.step && g.lane == w.lane && g.round == w.round &&
                  g.serialization == w.serialization)
          << "round record " << i << ": " << g.lane << " round " << g.round
          << ", want " << w.lane << " round " << w.round;
    }
    ASSERT_EQ(log.transfers().size(), transfers_want.size());
    std::size_t lane_at = 0;
    for (std::size_t i = 0; i < transfers_want.size(); ++i) {
      const obs::TransferTrace& g = log.transfers()[i];
      const obs::TransferTrace& w = transfers_want[i];
      EXPECT_TRUE(g.step == w.step && g.round == w.round && g.src == w.src &&
                  g.dst == w.dst && g.elements == w.elements &&
                  g.wavelength == w.wavelength && g.direction == w.direction)
          << "transfer record " << i << ": " << g.src << "->" << g.dst
          << " round " << g.round << " lambda " << g.wavelength << ", want "
          << w.src << "->" << w.dst << " round " << w.round << " lambda "
          << w.wavelength;
      lane_at = std::max(lane_at, std::size_t{g.lane} + 1);
    }
    // Each share records its own lane: col7, row0, row1, row3, row4.
    ASSERT_EQ(lane_at, 5u);
    for (std::uint32_t l = 0; l < lane_at; ++l) {
      EXPECT_EQ(log.lane(l), lanes[l]);
    }
  }
}

TEST(TorusNetwork, RwaWorkerCountNeverChangesA64x64WrhtReport) {
  exp::ensure_initialized();
  const Torus torus(64, 64);
  const std::uint32_t w = 8;
  const coll::Schedule sched = core::torus_wrht_allreduce(
      torus, 1 << 16, core::WrhtOptions{core::plan_wrht(64, w).group_size, w});
  std::string baseline;
  for (const unsigned threads : {1u, 4u}) {
    net::BackendConfig config;
    config.num_nodes = torus.size();
    config.torus_rows = 64;
    config.torus_cols = 64;
    // Half the planned budget, so rings split into rounds.
    config.wavelengths = w / 2;
    config.validate_node_capacity = false;
    config.rwa_threads = threads;
    const RunReport report = net::BackendRegistry::instance()
                                 .create("optical-torus", config)
                                 ->execute(sched);
    EXPECT_EQ(report.steps, sched.num_steps());
    EXPECT_GT(report.rounds, report.steps);
    std::ostringstream json;
    report.write_json(json);
    if (baseline.empty()) {
      baseline = json.str();
    } else {
      EXPECT_EQ(json.str(), baseline) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(baseline.empty());
}

TEST(TorusNetwork, TorusBeatsFlatRingForSameNodeCount) {
  // 8x8 torus vs flat 64-ring, WRHT both, small wavelength budget.
  const std::uint32_t w = 4;
  const Torus torus(8, 8);
  const TorusNetwork tnet(torus, cfg(w));
  const auto tsched =
      core::torus_wrht_allreduce(torus, 1'000'000, core::WrhtOptions{3, w});

  optics::OpticalConfig rc;
  rc.wavelengths = w;
  const RingNetwork rnet(64, rc);
  const auto plan = core::plan_wrht(64, w);
  const auto rsched = core::wrht_allreduce(
      64, 1'000'000, core::WrhtOptions{plan.group_size, w});

  const double t_torus = tnet.execute(tsched).total_time.count();
  const double t_ring = rnet.execute(rsched).total_time.count();
  // Step counts are comparable (log_m(rows) + log_m(cols) ~ log_m(N));
  // the torus trades a couple of extra steps for per-dimension wavelength
  // locality. It must stay within 2x of the flat ring.
  EXPECT_LE(t_torus, t_ring * 2.0);
  // And it crushes the non-hierarchical flat Ring All-reduce.
  EXPECT_LT(t_torus, 2.0 * (64 - 1) * 25e-6);
}

void expect_rejected_delay(const Torus& torus, const OpticalConfig& config,
                           const std::string& field) {
  try {
    (void)TorusNetwork(torus, config);
    ADD_FAILURE() << "a negative " << field << " was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(TorusNetwork, Validation) {
  const Torus torus(3, 3);
  OpticalConfig bad;
  bad.wavelengths = 0;
  EXPECT_THROW(TorusNetwork(torus, bad), InvalidArgument);
  // A zero line rate would price every round at infinity, and zero bytes
  // per element would price no serialization at all.
  OpticalConfig no_rate;
  no_rate.wavelength_rate = BitsPerSecond(0.0);
  EXPECT_THROW(TorusNetwork(torus, no_rate), InvalidArgument);
  OpticalConfig no_bytes;
  no_bytes.bytes_per_element = 0;
  EXPECT_THROW(TorusNetwork(torus, no_bytes), InvalidArgument);
  // A negative delay would shorten rounds; a step takes its slowest ring's
  // time, so a run could report zero. Each names its field.
  expect_rejected_delay(
      torus, OpticalConfig{}.with_mrr_reconfig_delay(Seconds(-1e-3)),
      "mrr_reconfig_delay");
  expect_rejected_delay(torus, OpticalConfig{}.with_oeo_delay(Seconds(-1e-9)),
                        "oeo_delay");
}

}  // namespace
}  // namespace wrht::optics
