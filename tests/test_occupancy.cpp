// Invariants of the occupancy sampler and of what the four engines record
// into it: per-resource timelines never overlap, busy time never exceeds
// the run's wall clock, and the derived per-step breakdown tiles each
// step's duration exactly. The thread-count test pins the determinism
// contract: utilization analytics through exp::SweepRunner are identical
// regardless of WRHT_SWEEP_THREADS. The streaming tests pin
// analyze_utilization's one pass over the run's records bit for bit to the
// dense steps x resources table it replaced. The pattern tests pin step
// patterns to the explicit records they stand for: a use reads back, in
// every reader, as its slices recorded one by one at its place in the
// record order.
#include "wrht/obs/occupancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/electrical/fat_tree_network.hpp"
#include "wrht/electrical/packet_sim.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/ring_network.hpp"
#include "wrht/optical/torus_network.hpp"

namespace wrht::obs {
namespace {

constexpr OccCategory kTx = OccCategory::kTransmission;
constexpr OccCategory kRetune = OccCategory::kReconfiguration;

// ------------------------------------------------------- sampler basics

TEST(OccupancySampler, ResourceHandlesAreDenseAndDeduplicated) {
  OccupancySampler s;
  const auto a = s.resource("cw/w0");
  const auto b = s.resource("ccw/w0");
  EXPECT_EQ(s.resource("cw/w0"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(s.num_resources(), 2u);
  EXPECT_EQ(s.name(a), "cw/w0");
  EXPECT_EQ(s.name(b), "ccw/w0");
}

TEST(OccupancySampler, DropsNonPositiveDurations) {
  OccupancySampler s;
  const auto r = s.resource("r");
  s.record(r, 0, Seconds(1.0), Seconds(0.0), kTx);
  s.record(r, 0, Seconds(1.0), Seconds(-1e-9), kTx);
  EXPECT_TRUE(s.intervals(r).empty());
}

TEST(OccupancySampler, CoalescesBackToBackSlices) {
  OccupancySampler s;
  const auto r = s.resource("r");
  // Back-to-back same step/category/concurrency: one interval.
  s.record(r, 0, Seconds(0.0), Seconds(1e-6), kTx);
  s.record(r, 0, Seconds(1e-6), Seconds(2e-6), kTx);
  ASSERT_EQ(s.intervals(r).size(), 1u);
  EXPECT_DOUBLE_EQ(s.intervals(r).front().duration.count(), 3e-6);
  // Category change breaks the merge even when contiguous.
  s.record(r, 0, Seconds(3e-6), Seconds(1e-6), kRetune);
  EXPECT_EQ(s.intervals(r).size(), 2u);
  // A gap breaks it too.
  s.record(r, 0, Seconds(5e-6), Seconds(1e-6), kRetune);
  EXPECT_EQ(s.intervals(r).size(), 3u);
}

TEST(OccupancySampler, RecordedSumsPerCategory) {
  OccupancySampler s;
  const auto r = s.resource("r");
  s.record(r, 0, Seconds(0.0), Seconds(1e-6), kTx);
  s.record(r, 1, Seconds(2e-6), Seconds(3e-6), kRetune);
  EXPECT_DOUBLE_EQ(s.recorded(r, kTx).count(), 1e-6);
  EXPECT_DOUBLE_EQ(s.recorded(r, kRetune).count(), 3e-6);
  EXPECT_DOUBLE_EQ(s.recorded(r).count(), 4e-6);
  s.clear();
  EXPECT_EQ(s.num_resources(), 0u);
}

TEST(OccupancySampler, RejectsAStepAfterALaterOne) {
  OccupancySampler s;
  const auto a = s.resource("a");
  const auto b = s.resource("b");
  s.record(a, 2, Seconds(0.0), Seconds(1e-6), kTx);
  s.record(b, 2, Seconds(0.0), Seconds(1e-6), kTx);
  EXPECT_THROW(s.record(b, 1, Seconds(2e-6), Seconds(1e-6), kTx),
               InvalidArgument);
  // Dropped (zero-length) records obey the order too.
  s.record(a, 3, Seconds(2e-6), Seconds(0.0), kTx);
  EXPECT_THROW(s.record(a, 2, Seconds(2e-6), Seconds(1e-6), kTx),
               InvalidArgument);
  s.clear();
  const auto c = s.resource("c");
  s.record(c, 0, Seconds(0.0), Seconds(1e-6), kTx);
  EXPECT_EQ(s.intervals(c).size(), 1u);
}

TEST(OccupancySampler, IntervalsViewWalksOneResourceAcrossBlocks) {
  // Two resources interleaved over more than two store blocks: for_each
  // yields every record in record order, each view its own, and a view's
  // size is its record count.
  OccupancySampler s;
  const auto even = s.resource("even");
  const auto odd = s.resource("odd");
  const std::size_t records = 2 * OccupancySampler::kBlockRecords + 7;
  for (std::size_t i = 0; i < records; ++i) {
    // Gaps between a resource's records keep them from coalescing.
    s.record(i % 2 == 0 ? even : odd, static_cast<std::uint32_t>(i / 2),
             Seconds(static_cast<double>(i)), Seconds(0.5), kTx);
  }
  EXPECT_EQ(s.size(), records);
  std::size_t next = 0;
  s.for_each([&](const OccInterval& i) {
    EXPECT_EQ(i.start.count(), static_cast<double>(next));
    ++next;
  });
  EXPECT_EQ(next, records);
  for (const auto ref : {even, odd}) {
    const OccupancySampler::Intervals view = s.intervals(ref);
    EXPECT_EQ(view.size(), (records + 1 - ref) / 2);
    std::size_t seen = 0;
    for (const OccInterval& i : view) {
      EXPECT_EQ(i.resource, ref);
      EXPECT_EQ(i.start.count(), static_cast<double>(2 * seen + ref));
      ++seen;
    }
    EXPECT_EQ(seen, view.size());
  }
}

// The resource ref sits in what would be tail padding.
static_assert(sizeof(OccInterval) == 32);

// ------------------------------------------- engine-recorded invariants

/// Sorted-by-start intervals of `ref` must tile without overlap, and the
/// busy total cannot exceed the run's wall clock (a resource is one
/// physical channel; spatial reuse raises `concurrency`, not busy time).
void expect_valid_timelines(const OccupancySampler& sampler,
                            double total_time) {
  ASSERT_GT(sampler.num_resources(), 0u);
  const double eps = 1e-12 * (1.0 + total_time);
  for (OccupancySampler::ResourceRef ref = 0; ref < sampler.num_resources();
       ++ref) {
    const OccupancySampler::Intervals view = sampler.intervals(ref);
    std::vector<OccInterval> sorted(view.begin(), view.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const OccInterval& a, const OccInterval& b) {
                return a.start.count() < b.start.count();
              });
    double cursor = 0.0;
    double busy = 0.0;
    for (const OccInterval& iv : sorted) {
      EXPECT_GE(iv.start.count(), cursor - eps)
          << sampler.name(ref) << ": overlapping intervals";
      EXPECT_GT(iv.duration.count(), 0.0);
      EXPECT_GE(iv.concurrency, 1u);
      cursor = iv.start.count() + iv.duration.count();
      busy += iv.duration.count();
    }
    EXPECT_LE(cursor, total_time + eps) << sampler.name(ref);
    EXPECT_LE(busy, total_time + eps)
        << sampler.name(ref) << ": busier than the wall clock";
  }
}

/// The analysis identities: every step's breakdown sums to the step's
/// duration, the run breakdown sums to total_time, and the critical path
/// tiles the run.
void expect_accounting_identities(const RunReport& report,
                                  const UtilizationAnalysis& analysis) {
  const double eps = 1e-9;
  for (const StepReport& step : report.step_reports) {
    EXPECT_NEAR(step.breakdown.total().count(), step.duration.count(), eps)
        << step.label;
  }
  EXPECT_NEAR(report.breakdown.total().count(), report.total_time.count(),
              eps);
  EXPECT_NEAR(analysis.critical_path_length.count(),
              report.total_time.count(), eps);
  EXPECT_GE(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_EQ(report.resources_observed, analysis.resources.size());
}

TEST(EngineOccupancy, OpticalRingRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const optics::RingNetwork net(8,
                                optics::OpticalConfig{}.with_wavelengths(8));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, OpticalRingMultiRoundWrht) {
  // Few wavelengths force multi-round splitting, so the sampler sees
  // reconfiguration, O/E/O and straggler intervals, not just payload.
  const auto plan = core::plan_wrht(32, 4);
  const coll::Schedule sched =
      core::wrht_allreduce(32, 6400, core::WrhtOptions{plan.group_size, 4});
  const optics::RingNetwork net(
      32, optics::OpticalConfig{}.with_wavelengths(4).with_validate_node_capacity(
              false));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, OpticalTorusRecordsValidTimelines) {
  const topo::Torus torus(4, 8);
  const auto sched =
      core::torus_wrht_allreduce(torus, 1000, core::WrhtOptions{3, 8});
  const optics::TorusNetwork net(torus,
                                 optics::OpticalConfig{}.with_wavelengths(8));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, ElectricalFlowRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const elec::FatTreeNetwork net(8, elec::ElectricalConfig{});
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, ElectricalPacketRecordsValidTimelines) {
  const coll::Schedule sched = coll::ring_allreduce(8, 800);
  const elec::PacketLevelNetwork net(8, elec::ElectricalConfig{});
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  RunReport report = net.execute(sched, probe).to_report();
  expect_valid_timelines(sampler, report.total_time.count());
  expect_accounting_identities(report, attach_utilization(report, sampler));
}

TEST(EngineOccupancy, SecondRunOnOneSamplerIsRejected) {
  // A sampler holds one run: a second run would merge both runs' records
  // (transmission and utilization read double).
  const coll::Schedule sched = coll::ring_allreduce(16, 64);
  const optics::RingNetwork net(16,
                                optics::OpticalConfig{}.with_wavelengths(4));
  OccupancySampler sampler;
  Probe probe;
  probe.occupancy = &sampler;
  const RunReport first = net.execute(sched, probe).to_report();
  const UtilizationAnalysis alone = analyze_utilization(first, sampler);
  EXPECT_THROW((void)net.execute(sched, probe), InvalidArgument);

  sampler.clear();
  const RunReport again = net.execute(sched, probe).to_report();
  const UtilizationAnalysis cleared = analyze_utilization(again, sampler);
  EXPECT_EQ(cleared.breakdown.transmission.count(),
            alone.breakdown.transmission.count());
  EXPECT_EQ(cleared.utilization, alone.utilization);
}

// ------------------------------- streaming analysis == the dense table

/// analyze_utilization as it was before the record store: a dense
/// acc[step x resource] table filled resource by resource, then read step
/// by step. The streaming pass must equal it bit for bit.
UtilizationAnalysis reference_analyze(const RunReport& report,
                                      const OccupancySampler& sampler) {
  using CategoryTimes = std::array<double, kOccCategoryCount>;
  const auto from_categories = [](const CategoryTimes& t, double interval) {
    TimeBreakdown b;
    b.transmission = Seconds(t[0]);
    b.reconfiguration = Seconds(t[1]);
    b.conversion = Seconds(t[2]);
    b.processing = Seconds(t[3]);
    b.straggler_wait = Seconds(t[4]);
    const double idle = interval - b.accounted().count();
    b.idle = Seconds(idle < 0.0 ? 0.0 : idle);
    return b;
  };
  UtilizationAnalysis out;
  const std::size_t num_steps = report.step_reports.size();
  const std::size_t num_res = sampler.num_resources();
  std::vector<CategoryTimes> acc(num_steps * num_res, CategoryTimes{});
  for (std::size_t r = 0; r < num_res; ++r) {
    for (const OccInterval& i :
         sampler.intervals(static_cast<std::uint32_t>(r))) {
      if (i.step >= num_steps) continue;
      acc[i.step * num_res + r][static_cast<std::size_t>(i.category)] +=
          i.duration.count();
    }
  }
  double slack_free = 0.0;
  for (std::size_t s = 0; s < num_steps; ++s) {
    const StepReport& step = report.step_reports[s];
    CategoryTimes mean{};
    std::size_t critical = num_res;
    double critical_accounted = -1.0;
    for (std::size_t r = 0; r < num_res; ++r) {
      const CategoryTimes& t = acc[s * num_res + r];
      double accounted = 0.0;
      for (std::size_t c = 0; c < kOccCategoryCount; ++c) {
        mean[c] += t[c];
        accounted += t[c];
      }
      if (accounted > critical_accounted) {
        critical_accounted = accounted;
        critical = r;
      }
    }
    if (num_res > 0) {
      for (double& c : mean) c /= static_cast<double>(num_res);
    }
    out.step_breakdowns.push_back(
        from_categories(mean, step.duration.count()));
    CriticalPathEntry edge;
    edge.step = static_cast<std::uint32_t>(s);
    edge.label = step.label;
    edge.duration = step.duration;
    if (critical < num_res) {
      edge.resource = sampler.name(static_cast<std::uint32_t>(critical));
      edge.transmission = Seconds(acc[s * num_res + critical][0]);
    } else {
      edge.resource = "(unobserved)";
    }
    slack_free += edge.transmission.count();
    out.critical_path_length += edge.duration;
    out.critical_path.push_back(edge);
  }
  for (const TimeBreakdown& b : out.step_breakdowns) out.breakdown += b;
  if (report.total_time.count() > 0.0) {
    out.utilization =
        out.breakdown.transmission.count() / report.total_time.count();
  }
  if (out.critical_path_length.count() > 0.0) {
    out.slack_free_fraction = slack_free / out.critical_path_length.count();
  }
  for (std::size_t r = 0; r < num_res; ++r) {
    const auto ref = static_cast<std::uint32_t>(r);
    CategoryTimes t{};
    for (const OccInterval& i : sampler.intervals(ref)) {
      t[static_cast<std::size_t>(i.category)] += i.duration.count();
    }
    ResourceUtilization u;
    u.name = sampler.name(ref);
    u.breakdown = from_categories(t, report.total_time.count());
    if (report.total_time.count() > 0.0) {
      u.utilization =
          u.breakdown.transmission.count() / report.total_time.count();
    }
    out.resources.push_back(u);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t bits(Seconds v) { return bits(v.count()); }

void expect_same_bits(const TimeBreakdown& a, const TimeBreakdown& b,
                      const std::string& where) {
  EXPECT_EQ(bits(a.transmission), bits(b.transmission)) << where;
  EXPECT_EQ(bits(a.reconfiguration), bits(b.reconfiguration)) << where;
  EXPECT_EQ(bits(a.conversion), bits(b.conversion)) << where;
  EXPECT_EQ(bits(a.processing), bits(b.processing)) << where;
  EXPECT_EQ(bits(a.straggler_wait), bits(b.straggler_wait)) << where;
  EXPECT_EQ(bits(a.idle), bits(b.idle)) << where;
}

void expect_same_analysis(const UtilizationAnalysis& got,
                          const UtilizationAnalysis& want,
                          const std::string& where) {
  expect_same_bits(got.breakdown, want.breakdown, where + " run");
  EXPECT_EQ(bits(got.utilization), bits(want.utilization)) << where;
  EXPECT_EQ(bits(got.slack_free_fraction), bits(want.slack_free_fraction))
      << where;
  EXPECT_EQ(bits(got.critical_path_length), bits(want.critical_path_length))
      << where;
  ASSERT_EQ(got.step_breakdowns.size(), want.step_breakdowns.size()) << where;
  for (std::size_t s = 0; s < want.step_breakdowns.size(); ++s) {
    expect_same_bits(got.step_breakdowns[s], want.step_breakdowns[s],
                     where + " step " + std::to_string(s));
  }
  ASSERT_EQ(got.critical_path.size(), want.critical_path.size()) << where;
  for (std::size_t s = 0; s < want.critical_path.size(); ++s) {
    const CriticalPathEntry& g = got.critical_path[s];
    const CriticalPathEntry& w = want.critical_path[s];
    const std::string at = where + " edge " + std::to_string(s);
    EXPECT_EQ(g.step, w.step) << at;
    EXPECT_EQ(g.label, w.label) << at;
    EXPECT_EQ(g.resource, w.resource) << at;
    EXPECT_EQ(bits(g.duration), bits(w.duration)) << at;
    EXPECT_EQ(bits(g.transmission), bits(w.transmission)) << at;
  }
  ASSERT_EQ(got.resources.size(), want.resources.size()) << where;
  for (std::size_t r = 0; r < want.resources.size(); ++r) {
    const std::string at = where + " resource " + want.resources[r].name;
    EXPECT_EQ(got.resources[r].name, want.resources[r].name) << at;
    expect_same_bits(got.resources[r].breakdown, want.resources[r].breakdown,
                     at);
    EXPECT_EQ(bits(got.resources[r].utilization),
              bits(want.resources[r].utilization))
        << at;
  }
}

/// A seeded sampler and the report it is analyzed against. Records run
/// two steps past the report's last; some steps are empty, some resources
/// silent in a step; slices are sometimes back to back (coalesced) and
/// sometimes of zero or negative length (dropped). With `twins`, every
/// odd resource repeats its even neighbour's records, so the critical
/// path has ties to break.
struct Seeded {
  OccupancySampler sampler;
  RunReport report;
  std::size_t positive = 0;  ///< records sent with a positive duration
  std::size_t dropped = 0;   ///< records sent with a zero or negative one
};

void fill_seeded(Seeded& out, std::uint64_t seed, std::size_t num_res,
                 std::size_t num_steps, bool twins) {
  Rng rng(seed);
  std::vector<OccupancySampler::ResourceRef> refs;
  for (std::size_t r = 0; r < num_res; ++r) {
    refs.push_back(out.sampler.resource("res" + std::to_string(r)));
  }
  double clock = 0.0;
  for (std::size_t s = 0; s < num_steps + 2; ++s) {
    const auto step = static_cast<std::uint32_t>(s);
    const double step_len = rng.uniform_real(1e-6, 1e-4);
    const bool empty_step = rng.uniform_int(0, 4) == 0;
    for (std::size_t r = 0; r < num_res && !empty_step; ++r) {
      if (twins && r % 2 == 1) continue;
      if (rng.uniform_int(0, 3) == 0) continue;  // silent this step
      double at = clock;
      const std::uint64_t slices = rng.uniform_int(1, 5);
      for (std::uint64_t k = 0; k < slices; ++k) {
        const auto category =
            static_cast<OccCategory>(rng.uniform_int(0, kOccCategoryCount - 1));
        double duration = rng.uniform_real(0.0, step_len / 4.0);
        const std::uint64_t kind = rng.uniform_int(0, 9);
        if (kind == 0) duration = 0.0;
        if (kind == 1) duration = -duration;
        const std::uint32_t concurrency =
            static_cast<std::uint32_t>(rng.uniform_int(1, 2));
        // Back to back with the previous slice (which coalesces when the
        // kind matches), or after a gap.
        if (rng.uniform_int(0, 2) == 0) at += rng.uniform_real(0.0, 1e-6);
        const std::size_t copies = twins && r + 1 < num_res ? 2 : 1;
        for (std::size_t c = 0; c < copies; ++c) {
          out.sampler.record(refs[r + c], step, Seconds(at),
                             Seconds(duration), category, concurrency);
          ++(duration > 0.0 ? out.positive : out.dropped);
        }
        if (duration > 0.0) at += duration;
      }
    }
    if (s < num_steps) {
      StepReport report_step;
      report_step.label = "step " + std::to_string(s);
      report_step.start = Seconds(clock);
      report_step.duration = Seconds(step_len);
      out.report.step_reports.push_back(report_step);
      out.report.total_time += Seconds(step_len);
    }
    clock += step_len;
  }
  out.report.steps = num_steps;
}

TEST(UtilizationStream, EqualsTheDenseTableBitForBit) {
  struct Shape {
    std::size_t resources;
    std::size_t steps;
    bool twins;
  };
  const Shape shapes[] = {{0, 4, false}, {1, 6, false},  {3, 1, false},
                          {5, 0, false}, {17, 12, false}, {40, 9, false},
                          {8, 10, true}, {17, 7, true}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Seeded seeded;
      fill_seeded(seeded, seed, shape.resources, shape.steps, shape.twins);
      const std::string where = std::to_string(shape.resources) + "x" +
                                std::to_string(shape.steps) +
                                (shape.twins ? " twins" : "") + " seed " +
                                std::to_string(seed);
      expect_same_analysis(analyze_utilization(seeded.report, seeded.sampler),
                           reference_analyze(seeded.report, seeded.sampler),
                           where);
    }
  }
}

TEST(UtilizationStream, SeededSamplersCoverEveryCase) {
  // The equality above is only as strong as its samplers: check that they
  // hold each case the streaming pass must get right.
  std::size_t past_end = 0;
  std::size_t empty_steps = 0;
  std::size_t silent = 0;
  std::size_t coalesced = 0;
  std::size_t dropped = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Seeded seeded;
    fill_seeded(seeded, seed, 17, 12, false);
    std::vector<std::vector<bool>> heard(12, std::vector<bool>(17, false));
    seeded.sampler.for_each([&](const OccInterval& i) {
      if (i.step >= 12) {
        ++past_end;
        return;
      }
      heard[i.step][i.resource] = true;
    });
    for (const auto& step : heard) {
      const auto count = std::count(step.begin(), step.end(), true);
      empty_steps += count == 0 ? 1 : 0;
      silent += count > 0 && count < 17 ? 1 : 0;
    }
    coalesced += seeded.positive - seeded.sampler.size();
    dropped += seeded.dropped;
  }
  EXPECT_GT(past_end, 0u);
  EXPECT_GT(empty_steps, 0u);
  EXPECT_GT(silent, 0u);
  EXPECT_GT(coalesced, 0u);
  EXPECT_GT(dropped, 0u);
}

// ------------------------------------------------------ step patterns

constexpr OccCategory kWait = OccCategory::kStragglerWait;

std::vector<OccInterval> every_interval(const OccupancySampler& s) {
  std::vector<OccInterval> out;
  s.for_each([&](const OccInterval& i) { out.push_back(i); });
  return out;
}

void expect_same_intervals(const std::vector<OccInterval>& got,
                           const std::vector<OccInterval>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const std::string at = where + " interval " + std::to_string(k);
    EXPECT_EQ(bits(got[k].start), bits(want[k].start)) << at;
    EXPECT_EQ(bits(got[k].duration), bits(want[k].duration)) << at;
    EXPECT_EQ(got[k].category, want[k].category) << at;
    EXPECT_EQ(got[k].step, want[k].step) << at;
    EXPECT_EQ(got[k].concurrency, want[k].concurrency) << at;
    EXPECT_EQ(got[k].resource, want[k].resource) << at;
  }
}

TEST(OccupancyPatterns, UsesInterleaveWithRecordsInRecordOrder) {
  // `mixed` holds explicit records and pattern uses; `flat` the same
  // intervals as explicit records, in the same order. Gaps between a
  // resource's intervals keep `flat` from coalescing them.
  OccupancySampler mixed;
  OccupancySampler flat;
  const std::vector<OccupancySampler::ResourceRef> refs = {
      mixed.resource("a"), mixed.resource("b"), mixed.resource("c")};
  for (const auto ref : refs) ASSERT_EQ(flat.resource(mixed.name(ref)), ref);
  const OccSlice slices[] = {
      {refs[0], Seconds(0.0), Seconds(1e-6), kTx, 2},
      {refs[1], Seconds(0.5e-6), Seconds(1e-6), kRetune, 1},
      {refs[0], Seconds(2e-6), Seconds(0.5e-6), kWait, 1},
  };
  const OccupancySampler::PatternId p = mixed.add_pattern(slices);
  const auto use = [&](std::uint32_t step, double start) {
    mixed.record_pattern(p, step, Seconds(start));
    for (const OccSlice& slice : slices) {
      flat.record(slice.resource, step, Seconds(start + slice.offset.count()),
                  slice.duration, slice.category, slice.concurrency);
    }
  };
  const auto record = [&](OccupancySampler::ResourceRef ref,
                          std::uint32_t step, double start, double duration,
                          OccCategory category) {
    for (OccupancySampler* s : {&mixed, &flat}) {
      s->record(ref, step, Seconds(start), Seconds(duration), category);
    }
  };
  record(refs[2], 0, 0.0, 1e-6, kTx);
  use(0, 1e-5);
  record(refs[0], 1, 2e-5, 1e-6, kRetune);
  use(1, 3e-5);
  use(2, 4e-5);
  record(refs[1], 2, 5e-5, 1e-6, kTx);
  record(refs[2], 2, 5e-5, 2e-6, kWait);
  use(2, 6e-5);

  EXPECT_EQ(mixed.size(), 4u + 3u * 4u);
  EXPECT_EQ(mixed.size(), flat.size());
  expect_same_intervals(every_interval(mixed), every_interval(flat),
                        "for_each");
  for (const auto ref : refs) {
    const OccupancySampler::Intervals view = mixed.intervals(ref);
    EXPECT_EQ(view.size(), flat.intervals(ref).size()) << mixed.name(ref);
    const OccupancySampler::Intervals twin = flat.intervals(ref);
    expect_same_intervals({view.begin(), view.end()},
                          {twin.begin(), twin.end()}, mixed.name(ref));
  }

  RunReport report;
  for (std::uint32_t s = 0; s < 3; ++s) {
    StepReport step;
    step.label = "step " + std::to_string(s);
    step.start = report.total_time;
    step.duration = Seconds(2e-5);
    report.step_reports.push_back(step);
    report.total_time += step.duration;
  }
  report.steps = 3;
  expect_same_analysis(analyze_utilization(report, mixed),
                       analyze_utilization(report, flat), "mixed vs flat");
  expect_same_analysis(analyze_utilization(report, mixed),
                       reference_analyze(report, mixed), "mixed vs dense");
}

TEST(OccupancyPatterns, DropsNonPositiveSlices) {
  OccupancySampler s;
  const auto r = s.resource("r");
  const OccSlice slices[] = {
      {r, Seconds(0.0), Seconds(0.0), kTx, 1},
      {r, Seconds(1e-6), Seconds(-1e-9), kRetune, 1},
      {r, Seconds(2e-6), Seconds(1e-6), kWait, 1},
  };
  const auto p = s.add_pattern(slices);
  s.record_pattern(p, 0, Seconds(0.0));
  s.record_pattern(p, 1, Seconds(1e-5));
  ASSERT_EQ(s.intervals(r).size(), 2u);
  EXPECT_EQ(s.size(), 2u);
  for (const OccInterval& i : s.intervals(r)) EXPECT_EQ(i.category, kWait);
  // A pattern with nothing left still takes its place in the step order.
  const auto nothing = s.add_pattern(std::span(slices, 2));
  s.record_pattern(nothing, 3, Seconds(2e-5));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_THROW(s.record(r, 2, Seconds(3e-5), Seconds(1e-6), kTx),
               InvalidArgument);
}

TEST(OccupancyPatterns, UseAtALowerStepThrows) {
  OccupancySampler s;
  const auto r = s.resource("r");
  const OccSlice slice{r, Seconds(0.0), Seconds(1e-6), kTx, 1};
  const auto p = s.add_pattern(std::span(&slice, 1));
  s.record(r, 2, Seconds(0.0), Seconds(1e-6), kTx);
  EXPECT_THROW(s.record_pattern(p, 1, Seconds(1e-5)), InvalidArgument);
  s.record_pattern(p, 2, Seconds(1e-5));
  EXPECT_THROW(s.record(r, 1, Seconds(2e-5), Seconds(1e-6), kTx),
               InvalidArgument);
  EXPECT_THROW(s.record_pattern(p + 1, 2, Seconds(3e-5)), InvalidArgument);
  // A pattern naming an unknown resource is rejected whole.
  const OccSlice slices[] = {slice,
                             {r + 1, Seconds(0.0), Seconds(1e-6), kTx, 1}};
  EXPECT_THROW((void)s.add_pattern(slices), InvalidArgument);
  EXPECT_EQ(s.add_pattern(std::span(&slice, 1)), p + 1);
  EXPECT_EQ(s.intervals(r).size(), 2u);
}

TEST(OccupancyPatterns, ClearForgetsPatterns) {
  OccupancySampler s;
  const auto r = s.resource("r");
  const OccSlice slice{r, Seconds(0.0), Seconds(1e-6), kTx, 1};
  const auto p = s.add_pattern(std::span(&slice, 1));
  s.record_pattern(p, 4, Seconds(0.0));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_THROW(s.record_pattern(p, 4, Seconds(0.0)), InvalidArgument);
  // The next run starts over: refs, pattern ids and the step order.
  const auto again = s.resource("again");
  EXPECT_EQ(again, r);
  const OccSlice other{again, Seconds(1e-6), Seconds(2e-6), kRetune, 1};
  EXPECT_EQ(s.add_pattern(std::span(&other, 1)), p);
  s.record_pattern(p, 0, Seconds(0.0));
  ASSERT_EQ(s.intervals(again).size(), 1u);
  EXPECT_EQ(s.intervals(again).front().category, kRetune);
  EXPECT_EQ(every_interval(s).size(), 1u);
}

TEST(OccupancyPatterns, SizeCountsExpandedIntervals) {
  OccupancySampler s;
  const auto a = s.resource("a");
  const auto b = s.resource("b");
  const OccSlice two_on_a[] = {{a, Seconds(0.0), Seconds(1e-6), kTx, 1},
                               {b, Seconds(0.0), Seconds(1e-6), kTx, 1},
                               {a, Seconds(2e-6), Seconds(1e-6), kWait, 1}};
  const OccSlice one_on_b{b, Seconds(3e-6), Seconds(1e-6), kRetune, 1};
  const auto p = s.add_pattern(two_on_a);
  const auto q = s.add_pattern(std::span(&one_on_b, 1));
  for (std::uint32_t step = 0; step < 5; ++step) {
    s.record_pattern(p, step, Seconds(1e-5 * step));
    if (step % 2 == 0) s.record_pattern(q, step, Seconds(1e-5 * step));
    s.record(b, step, Seconds(1e-5 * step + 5e-6), Seconds(1e-6), kTx);
  }
  EXPECT_EQ(s.intervals(a).size(), 2u * 5u);
  EXPECT_EQ(s.intervals(b).size(), 5u + 3u + 5u);
  EXPECT_EQ(s.size(), 3u * 5u + 3u + 5u);
  EXPECT_EQ(every_interval(s).size(), s.size());
  for (const auto ref : {a, b}) {
    const OccupancySampler::Intervals view = s.intervals(ref);
    EXPECT_EQ(static_cast<std::size_t>(std::distance(view.begin(), view.end())),
              view.size());
  }
}

TEST(OccupancyPatterns, RecordNeverCoalescesIntoAPatternSlice) {
  OccupancySampler s;
  const auto r = s.resource("r");
  const auto other = s.resource("other");
  const OccSlice on_r{r, Seconds(0.0), Seconds(1e-6), kTx, 1};
  const OccSlice on_other{other, Seconds(0.0), Seconds(1e-6), kTx, 1};
  const auto p = s.add_pattern(std::span(&on_r, 1));
  const auto q = s.add_pattern(std::span(&on_other, 1));
  // Back to back with the slice a use wrote, same step/category/
  // concurrency: still two intervals.
  s.record_pattern(p, 0, Seconds(0.0));
  s.record(r, 0, Seconds(1e-6), Seconds(1e-6), kTx);
  EXPECT_EQ(s.intervals(r).size(), 2u);
  // A use on another resource does not stand between r's records.
  s.record_pattern(q, 0, Seconds(0.0));
  s.record(r, 0, Seconds(2e-6), Seconds(1e-6), kTx);
  ASSERT_EQ(s.intervals(r).size(), 2u);
  // A use on r does.
  s.record_pattern(p, 0, Seconds(3e-6));
  s.record(r, 0, Seconds(4e-6), Seconds(1e-6), kTx);
  EXPECT_EQ(s.intervals(r).size(), 4u);
  const std::vector<OccInterval> got(s.intervals(r).begin(),
                                     s.intervals(r).end());
  ASSERT_EQ(got.size(), 4u);
  const double starts[] = {0.0, 1e-6, 3e-6, 4e-6};
  const double durations[] = {1e-6, 2e-6, 1e-6, 1e-6};
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_DOUBLE_EQ(got[k].start.count(), starts[k]) << k;
    EXPECT_DOUBLE_EQ(got[k].duration.count(), durations[k]) << k;
  }
  EXPECT_EQ(s.size(), 5u);
}


// --------------------------------------------- sweep-level determinism

TEST(EngineOccupancy, UtilizationIdenticalAcrossSweepThreadCounts) {
  exp::SweepSpec spec;
  spec.workloads = {exp::Workload{"tiny", 4096}};
  spec.nodes = {16};
  spec.wavelengths = {4};
  const auto series = [](const char* name, const char* algorithm,
                          const char* backend) {
    exp::Series out;
    out.name = name;
    out.algorithm = algorithm;
    out.backend = backend;
    return out;
  };
  spec.series = {series("ring", "ring", "optical-ring"),
                 series("wrht", "wrht", "optical-ring"),
                 series("flow", "ring", "electrical-flow")};
  spec.config.validate_node_capacity = false;
  spec.config.collect_utilization = true;

  const auto serial = exp::SweepRunner(1).run(spec);
  const auto parallel = exp::SweepRunner(4).run(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunReport& a = serial[i].report;
    const RunReport& b = parallel[i].report;
    EXPECT_GT(a.resources_observed, 0u) << serial[i].point.series;
    EXPECT_EQ(a.utilization, b.utilization) << serial[i].point.series;
    EXPECT_EQ(a.resources_observed, b.resources_observed);
    EXPECT_EQ(a.breakdown.transmission.count(),
              b.breakdown.transmission.count());
    EXPECT_EQ(a.breakdown.reconfiguration.count(),
              b.breakdown.reconfiguration.count());
    EXPECT_EQ(a.breakdown.idle.count(), b.breakdown.idle.count());
  }
}

}  // namespace
}  // namespace wrht::obs
