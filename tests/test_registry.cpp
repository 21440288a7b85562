#include "wrht/collectives/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "wrht/common/error.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/verify/oracle.hpp"

namespace wrht::coll {
namespace {

TEST(Registry, BaselinesPreRegistered) {
  auto& reg = Registry::instance();
  for (const char* name : {"ring", "hring", "btree", "recursive_doubling"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("no-such-algorithm"));
}

TEST(Registry, NamesAreSorted) {
  const auto names = Registry::instance().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 4u);
}

TEST(Registry, BuildsWorkingSchedules) {
  auto& reg = Registry::instance();
  AllreduceParams p;
  p.num_nodes = 12;
  p.elements = 24;
  p.group_size = 4;
  for (const char* name : {"ring", "hring", "btree", "recursive_doubling"}) {
    const Schedule s = reg.build(name, p);
    const verify::OracleReport oracle = verify::check_allreduce(s);
    EXPECT_TRUE(oracle.ok()) << name << "\n"
                             << oracle.result.summary();
  }
}

TEST(Registry, UnknownNameThrows) {
  AllreduceParams p;
  p.num_nodes = 4;
  p.elements = 8;
  EXPECT_THROW(Registry::instance().build("nope", p), InvalidArgument);
}

TEST(Registry, HringRequiresGroupSize) {
  AllreduceParams p;
  p.num_nodes = 8;
  p.elements = 16;
  p.group_size = 0;
  EXPECT_THROW(Registry::instance().build("hring", p), InvalidArgument);
}

TEST(Registry, WrhtRegistrationIsIdempotent) {
  core::register_wrht_algorithm();
  core::register_wrht_algorithm();
  auto& reg = Registry::instance();
  ASSERT_TRUE(reg.contains("wrht"));
  AllreduceParams p;
  p.num_nodes = 20;
  p.elements = 20;
  p.group_size = 5;
  p.wavelengths = 8;
  const Schedule s = reg.build("wrht", p);
  EXPECT_EQ(s.algorithm(), "wrht");
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(Registry, WrhtAutoPlansGroupSize) {
  core::register_wrht_algorithm();
  AllreduceParams p;
  p.num_nodes = 64;
  p.elements = 64;
  p.group_size = 0;  // ask the planner
  p.wavelengths = 8;
  const Schedule s = Registry::instance().build("wrht", p);
  const verify::OracleReport oracle = verify::check_allreduce(s);
  EXPECT_TRUE(oracle.ok()) << oracle.result.summary();
}

TEST(Registry, CustomRegistrationAndReplacement) {
  auto& reg = Registry::instance();
  reg.register_algorithm("custom_test", [](const AllreduceParams& p) {
    return Schedule("custom_test", p.num_nodes, p.elements);
  });
  EXPECT_TRUE(reg.contains("custom_test"));
  AllreduceParams p;
  p.num_nodes = 2;
  p.elements = 2;
  EXPECT_EQ(reg.build("custom_test", p).num_steps(), 0u);
  EXPECT_THROW(reg.register_algorithm("x", BuilderFn{}), InvalidArgument);
}

}  // namespace
}  // namespace wrht::coll
