#include "wrht/prof/perf_report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"
#include "wrht/common/stats.hpp"

namespace wrht::prof {

void PerfReport::add_metric(const std::string& metric_name, double value,
                            const std::string& unit) {
  metrics.push_back(PerfMetric{metric_name, value, unit});
}

void PerfReport::add_sample_metrics(const std::string& base,
                                    const std::vector<double>& samples,
                                    const std::string& unit) {
  if (samples.empty()) {
    throw InvalidArgument("PerfReport: no samples for " + base);
  }
  add_metric(base + ".median", percentile(samples, 0.5), unit);
  add_metric(base + ".p90", percentile(samples, 0.9), unit);
}

const PerfMetric* PerfReport::find_metric(
    const std::string& metric_name) const {
  for (const PerfMetric& m : metrics) {
    if (m.name == metric_name) return &m;
  }
  return nullptr;
}

void PerfReport::capture(const ProfRegistry& registry) {
  phases = registry.phase_totals();
  // Pool efficiency: what fraction of the workers' wall time was spent
  // inside run_point. Both phases are recorded by exp::SweepRunner.
  const auto busy = phases.find("sweep.worker.busy");
  const auto wall = phases.find("sweep.worker.wall");
  if (busy != phases.end() && wall != phases.end() &&
      wall->second.seconds > 0.0) {
    thread_efficiency =
        std::min(1.0, busy->second.seconds / wall->second.seconds);
  }
}

void PerfReport::write_json(std::ostream& out) const {
  json::Writer w(out);
  w.raw("{\n  \"schema\": \"wrht-perf-1\",\n  \"name\": \"").str(name);
  w.raw("\",\n  \"repetitions\": ").integer(repetitions);
  w.raw(",\n  \"threads\": ").integer(threads);
  w.raw(",\n  \"wall_time_s\": ").number(wall_time_s, 9);
  w.raw(",\n  \"thread_efficiency\": ").number(thread_efficiency, 9);
  w.raw(",\n  \"peak_rss_bytes\": ").integer(peak_rss_bytes);
  w.raw(",\n");

  std::vector<const PerfMetric*> sorted;
  sorted.reserve(metrics.size());
  for (const PerfMetric& m : metrics) sorted.push_back(&m);
  std::sort(sorted.begin(), sorted.end(),
            [](const PerfMetric* a, const PerfMetric* b) {
              return a->name < b->name;
            });
  w.raw("  \"metrics\": {");
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    w.raw(i == 0 ? "\n    \"" : ",\n    \"").str(sorted[i]->name);
    w.raw("\": {\"value\": ").number(sorted[i]->value, 9);
    w.raw(", \"unit\": \"").str(sorted[i]->unit).raw("\"}");
  }
  w.raw(sorted.empty() ? "},\n" : "\n  },\n");

  w.raw("  \"phases\": {");
  bool first = true;
  for (const auto& [phase, totals] : phases) {
    w.raw(first ? "\n    \"" : ",\n    \"").str(phase);
    w.raw("\": {\"calls\": ").integer(totals.calls);
    w.raw(", \"seconds\": ").number(totals.seconds, 9).raw("}");
    first = false;
  }
  w.raw(phases.empty() ? "}\n}\n" : "\n  }\n}\n");
  w.flush();
}

void PerfReport::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("PerfReport: cannot open '" + path + "'");
  write_json(out);
}

}  // namespace wrht::prof
