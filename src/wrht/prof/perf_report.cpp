#include "wrht/prof/perf_report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/common/stats.hpp"

namespace wrht::prof {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Metric and phase names are library-chosen identifiers (no quotes or
/// control characters), but escape the JSON specials anyway so a stray
/// name cannot corrupt the document.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? '?' : c;
  }
  return out;
}

}  // namespace

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
  out << "{\n";
  out << "  \"schema\": \"wrht-perf-1\",\n";
  out << "  \"name\": \"" << escape(name) << "\",\n";
  out << "  \"repetitions\": " << repetitions << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"wall_time_s\": " << format_double(wall_time_s) << ",\n";
  out << "  \"thread_efficiency\": " << format_double(thread_efficiency)
      << ",\n";
  out << "  \"peak_rss_bytes\": " << peak_rss_bytes << ",\n";

  std::vector<const PerfMetric*> sorted;
  sorted.reserve(metrics.size());
  for (const PerfMetric& m : metrics) sorted.push_back(&m);
  std::sort(sorted.begin(), sorted.end(),
            [](const PerfMetric* a, const PerfMetric* b) {
              return a->name < b->name;
            });
  out << "  \"metrics\": {";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    \"" << escape(sorted[i]->name)
        << "\": {\"value\": " << format_double(sorted[i]->value)
        << ", \"unit\": \"" << escape(sorted[i]->unit) << "\"}";
  }
  out << (sorted.empty() ? "" : "\n  ") << "},\n";

  out << "  \"phases\": {";
  bool first = true;
  for (const auto& [phase, totals] : phases) {
    out << (first ? "" : ",") << "\n    \"" << escape(phase)
        << "\": {\"calls\": " << totals.calls
        << ", \"seconds\": " << format_double(totals.seconds) << "}";
    first = false;
  }
  out << (phases.empty() ? "" : "\n  ") << "}\n";
  out << "}\n";
}

void PerfReport::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("PerfReport: cannot open '" + path + "'");
  write_json(out);
}

}  // namespace wrht::prof
