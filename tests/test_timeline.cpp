#include "wrht/optical/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "wrht/collectives/btree_allreduce.hpp"
#include "wrht/common/error.hpp"

namespace wrht::optics {
namespace {

OpticalRunResult small_run() {
  OpticalConfig cfg;
  const RingNetwork net(8, cfg);
  return net.execute(coll::btree_allreduce(8, 800));
}

TEST(Timeline, StepStartsAreCumulative) {
  const OpticalRunResult res = small_run();
  ASSERT_EQ(res.step_costs.size(), 6u);
  double expect = 0.0;
  for (const StepCost& c : res.step_costs) {
    EXPECT_NEAR(c.start.count(), expect, 1e-15);
    expect += c.duration.count();
  }
  EXPECT_NEAR(expect, res.total_time.count(), 1e-15);
}

TEST(Timeline, CsvHasOneRowPerStep) {
  const OpticalRunResult res = small_run();
  const std::string path = testing::TempDir() + "/timeline_test.csv";
  write_timeline_csv(res, path);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  ASSERT_TRUE(std::getline(in, line));  // header
  EXPECT_EQ(line,
            "step,start_s,duration_s,rounds,wavelengths,"
            "max_transfer_elements");
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, res.step_costs.size());
  std::remove(path.c_str());
}

TEST(Timeline, AsciiRendersOneBarPerStep) {
  const OpticalRunResult res = small_run();
  std::ostringstream os;
  print_timeline(res.to_report(), os, 40);
  std::size_t bars = 0;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.find('#') != std::string::npos) ++bars;
  }
  EXPECT_EQ(bars, res.step_costs.size());
}

TEST(Timeline, EmptyRunRendersPlaceholder) {
  OpticalRunResult empty;
  std::ostringstream os;
  print_timeline(empty.to_report(), os);
  EXPECT_NE(os.str().find("empty timeline"), std::string::npos);
}

TEST(Timeline, WidthValidated) {
  OpticalRunResult empty;
  std::ostringstream os;
  EXPECT_THROW(print_timeline(empty.to_report(), os, 2), InvalidArgument);
}

}  // namespace
}  // namespace wrht::optics
