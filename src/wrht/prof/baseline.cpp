#include "wrht/prof/baseline.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"

namespace wrht::prof {

namespace {

constexpr const char* kHeader = "metric,value,max_rel_drift,direction";

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double parse_double(const std::string& field, const std::string& context) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(field, &consumed);
    if (consumed != field.size()) throw InvalidArgument(context);
    return value;
  } catch (const std::logic_error&) {
    throw Error(context + ": '" + field + "' is not a number");
  }
}

}  // namespace

Direction infer_direction(const std::string& metric_name,
                          const std::string& unit) {
  if (unit == "/s") return Direction::kHigherIsBetter;
  if (metric_name.find("efficiency") != std::string::npos ||
      metric_name.find("per_s") != std::string::npos) {
    return Direction::kHigherIsBetter;
  }
  return Direction::kLowerIsBetter;
}

Baseline Baseline::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("Baseline: cannot open '" + path + "'");
  Baseline out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (line == kHeader) continue;
    std::vector<std::string> fields;
    std::stringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() != 4) {
      throw InvalidArgument("Baseline: '" + path + "' line " +
                            std::to_string(line_no) +
                            ": expected 4 fields, got " +
                            std::to_string(fields.size()));
    }
    BaselineEntry entry;
    entry.metric = fields[0];
    entry.value = parse_double(fields[1], "Baseline: '" + path + "' line " +
                                              std::to_string(line_no) +
                                              " value");
    entry.max_rel_drift =
        parse_double(fields[2], "Baseline: '" + path + "' line " +
                                    std::to_string(line_no) + " drift");
    if (!(entry.max_rel_drift >= 0.0)) {
      throw InvalidArgument("Baseline: '" + path + "' line " +
                            std::to_string(line_no) +
                            ": max_rel_drift must be >= 0");
    }
    if (fields[3] == "lower") {
      entry.direction = Direction::kLowerIsBetter;
    } else if (fields[3] == "higher") {
      entry.direction = Direction::kHigherIsBetter;
    } else {
      throw Error("Baseline: '" + path + "' line " + std::to_string(line_no) +
                  ": direction must be 'lower' or 'higher', got '" +
                  fields[3] + "'");
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

Baseline Baseline::from_report(const PerfReport& report,
                               double max_rel_drift) {
  Baseline out;
  for (const PerfMetric& m : report.metrics) {
    BaselineEntry entry;
    entry.metric = m.name;
    entry.value = m.value;
    entry.direction = infer_direction(m.name, m.unit);
    // Same allowed slowdown factor F = 1 + drift both ways: a lower-is-
    // better metric may grow to value * F, a higher-is-better one may fall
    // to value / F (relative drift of drift / (1 + drift) < 1).
    entry.max_rel_drift = entry.direction == Direction::kLowerIsBetter
                              ? max_rel_drift
                              : max_rel_drift / (1.0 + max_rel_drift);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

void Baseline::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("Baseline: cannot open '" + path + "' for writing");
  out << "# wrht perf baseline — refresh with `wrht_perf --write-baseline` "
         "(see EXPERIMENTS.md)\n";
  out << kHeader << "\n";
  for (const BaselineEntry& entry : entries) {
    out << entry.metric << "," << format_double(entry.value) << ","
        << format_double(entry.max_rel_drift) << ","
        << (entry.direction == Direction::kLowerIsBetter ? "lower" : "higher")
        << "\n";
  }
}

bool CompareReport::ok() const {
  for (const DriftResult& r : results) {
    if (r.regressed) return false;
  }
  return true;
}

void CompareReport::print(std::ostream& out) const {
  char buf[256];
  for (const DriftResult& r : results) {
    if (r.missing) {
      std::snprintf(buf, sizeof(buf),
                    "  REGRESSED %-28s missing from report (baseline %s)\n",
                    r.metric.c_str(), format_double(r.baseline).c_str());
      out << buf;
      continue;
    }
    std::snprintf(
        buf, sizeof(buf), "  %-9s %-28s %12s vs %12s  drift %+7.2f%% (max %s%.0f%%)\n",
        r.regressed ? "REGRESSED" : "ok", r.metric.c_str(),
        format_double(r.value).c_str(), format_double(r.baseline).c_str(),
        r.rel_drift * 100.0,
        r.direction == Direction::kLowerIsBetter ? "+" : "-",
        r.threshold * 100.0);
    out << buf;
  }
}

CompareReport compare(const PerfReport& report, const Baseline& baseline) {
  CompareReport out;
  for (const BaselineEntry& entry : baseline.entries) {
    DriftResult result;
    result.metric = entry.metric;
    result.baseline = entry.value;
    result.threshold = entry.max_rel_drift;
    result.direction = entry.direction;
    const PerfMetric* metric = report.find_metric(entry.metric);
    if (metric == nullptr) {
      result.missing = true;
      result.regressed = true;
      out.results.push_back(std::move(result));
      continue;
    }
    result.value = metric->value;
    if (entry.value != 0.0) {
      result.rel_drift = (metric->value - entry.value) / entry.value;
    } else {
      // A zero baseline cannot express relative drift; any nonzero value
      // in the regressing direction counts as infinite drift.
      result.rel_drift = metric->value == 0.0
                             ? 0.0
                             : std::copysign(HUGE_VAL, metric->value);
    }
    result.regressed = entry.direction == Direction::kLowerIsBetter
                           ? result.rel_drift > entry.max_rel_drift
                           : -result.rel_drift > entry.max_rel_drift;
    out.results.push_back(std::move(result));
  }
  return out;
}

}  // namespace wrht::prof
