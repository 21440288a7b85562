#include "wrht/optical/torus_network.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wrht/common/error.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"

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
