#include "wrht/obs/analysis.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>

#include "wrht/prof/prof.hpp"

namespace wrht::obs {

namespace {

using CategoryTimes = std::array<double, kOccCategoryCount>;

double clamp_nonneg(double v) { return v < 0.0 ? 0.0 : v; }

TimeBreakdown from_categories(const CategoryTimes& t, double interval) {
  TimeBreakdown b;
  b.transmission = Seconds(t[static_cast<std::size_t>(OccCategory::kTransmission)]);
  b.reconfiguration =
      Seconds(t[static_cast<std::size_t>(OccCategory::kReconfiguration)]);
  b.conversion = Seconds(t[static_cast<std::size_t>(OccCategory::kConversion)]);
  b.processing = Seconds(t[static_cast<std::size_t>(OccCategory::kProcessing)]);
  b.straggler_wait =
      Seconds(t[static_cast<std::size_t>(OccCategory::kStragglerWait)]);
  b.idle = Seconds(clamp_nonneg(interval - b.accounted().count()));
  return b;
}

std::string format_s(Seconds s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6e", s.count());
  return buf;
}

std::string format_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%5.1f %%", fraction * 100.0);
  return buf;
}

}  // namespace

UtilizationAnalysis analyze_utilization(const RunReport& report,
                                        const OccupancySampler& sampler) {
  const prof::ScopedTimer timer("obs.analyze_utilization");
  UtilizationAnalysis out;
  const std::size_t num_steps = report.step_reports.size();
  const std::size_t num_res = sampler.num_resources();
  out.step_breakdowns.reserve(num_steps);
  out.critical_path.reserve(num_steps);
  double slack_free = 0.0;

  // One pass over the run's records, which come in step order. `row`
  // accumulates the current step's seconds per (resource, category);
  // `totals` the whole run's, including records past the report's last
  // step. Each cell adds its intervals in record order.
  std::vector<CategoryTimes> row(num_res, CategoryTimes{});
  std::vector<CategoryTimes> totals(num_res, CategoryTimes{});
  std::size_t s = 0;  // the step `row` holds
  const auto close_step = [&] {
    const StepReport& step = report.step_reports[s];

    // Mean over all observed resources; idle is the complement, so the
    // breakdown totals the step duration exactly.
    CategoryTimes mean{};
    std::size_t critical = num_res;  // sentinel: nothing observed
    double critical_accounted = -1.0;
    for (std::size_t r = 0; r < num_res; ++r) {
      const CategoryTimes& t = row[r];
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
    out.step_breakdowns.push_back(from_categories(mean, step.duration.count()));

    CriticalPathEntry edge;
    edge.step = static_cast<std::uint32_t>(s);
    edge.label = step.label;
    edge.duration = step.duration;
    if (critical < num_res) {
      edge.resource = sampler.name(static_cast<std::uint32_t>(critical));
      edge.transmission = Seconds(
          row[critical][static_cast<std::size_t>(OccCategory::kTransmission)]);
    } else {
      edge.resource = "(unobserved)";
    }
    slack_free += edge.transmission.count();
    out.critical_path_length += edge.duration;
    out.critical_path.push_back(std::move(edge));

    std::fill(row.begin(), row.end(), CategoryTimes{});
    ++s;
  };
  sampler.for_each([&](const OccInterval& i) {
    const auto category = static_cast<std::size_t>(i.category);
    totals[i.resource][category] += i.duration.count();
    if (i.step >= num_steps) return;
    while (s < i.step) close_step();
    row[i.resource][category] += i.duration.count();
  });
  while (s < num_steps) close_step();

  for (const TimeBreakdown& b : out.step_breakdowns) out.breakdown += b;
  if (report.total_time.count() > 0.0) {
    out.utilization = out.breakdown.transmission.count() /
                      report.total_time.count();
  }
  if (out.critical_path_length.count() > 0.0) {
    out.slack_free_fraction = slack_free / out.critical_path_length.count();
  }

  out.resources.reserve(num_res);
  for (std::size_t r = 0; r < num_res; ++r) {
    ResourceUtilization u;
    u.name = sampler.name(static_cast<std::uint32_t>(r));
    u.breakdown = from_categories(totals[r], report.total_time.count());
    if (report.total_time.count() > 0.0) {
      u.utilization = u.breakdown.transmission.count() /
                      report.total_time.count();
    }
    out.resources.push_back(std::move(u));
  }

  return out;
}

UtilizationAnalysis attach_utilization(RunReport& report,
                                       const OccupancySampler& sampler) {
  UtilizationAnalysis analysis = analyze_utilization(report, sampler);
  report.breakdown = analysis.breakdown;
  report.utilization = analysis.utilization;
  report.resources_observed = sampler.num_resources();
  for (std::size_t s = 0;
       s < report.step_reports.size() && s < analysis.step_breakdowns.size();
       ++s) {
    report.step_reports[s].breakdown = analysis.step_breakdowns[s];
  }
  return analysis;
}

std::vector<ResourceUtilization> top_idle(const UtilizationAnalysis& analysis,
                                          std::size_t k) {
  std::vector<ResourceUtilization> out = analysis.resources;
  std::stable_sort(out.begin(), out.end(),
                   [](const ResourceUtilization& a,
                      const ResourceUtilization& b) {
                     return a.breakdown.idle.count() > b.breakdown.idle.count();
                   });
  if (out.size() > k) out.resize(k);
  return out;
}

void print_bottleneck_report(std::ostream& out, const RunReport& report,
                             const UtilizationAnalysis& analysis,
                             std::size_t k) {
  out << "== bottleneck report: " << report.backend << " ==\n";
  out << "total time         : " << format_s(report.total_time) << " s over "
      << report.steps << " step(s), " << report.rounds << " round(s)\n";
  out << "resources observed : " << analysis.resources.size() << "\n";
  out << "mean utilization   : " << format_pct(analysis.utilization)
      << " of resource-time transmitting\n\n";

  const double total = report.total_time.count();
  const auto share = [&](Seconds s) {
    return total > 0.0 ? s.count() / total : 0.0;
  };
  out << "time breakdown (mean over resources):\n";
  const std::pair<const char*, Seconds> rows[] = {
      {"transmission", analysis.breakdown.transmission},
      {"reconfiguration", analysis.breakdown.reconfiguration},
      {"conversion", analysis.breakdown.conversion},
      {"processing", analysis.breakdown.processing},
      {"straggler-wait", analysis.breakdown.straggler_wait},
      {"idle", analysis.breakdown.idle},
  };
  for (const auto& [name, secs] : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-16s %s s  %s\n", name,
                  format_s(secs).c_str(), format_pct(share(secs)).c_str());
    out << line;
  }
  out << "  total accounted+idle = " << format_s(analysis.breakdown.total())
      << " s\n\n";

  out << "critical path (length " << format_s(analysis.critical_path_length)
      << " s, slack-free " << format_pct(analysis.slack_free_fraction)
      << "):\n";
  for (const CriticalPathEntry& e : analysis.critical_path) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  step %-3u %-24s via %-20s %s s (payload %s s)\n", e.step,
                  e.label.c_str(), e.resource.c_str(),
                  format_s(e.duration).c_str(),
                  format_s(e.transmission).c_str());
    out << line;
  }

  out << "\ntop idle resources:\n";
  const std::vector<ResourceUtilization> idle = top_idle(analysis, k);
  for (std::size_t i = 0; i < idle.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %2zu. %-20s idle %s s  %s of run\n",
                  i + 1, idle[i].name.c_str(),
                  format_s(idle[i].breakdown.idle).c_str(),
                  format_pct(share(idle[i].breakdown.idle)).c_str());
    out << line;
  }
  if (idle.empty()) out << "  (no resources observed)\n";
}

}  // namespace wrht::obs
