#include "wrht/obs/run_report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht {

namespace {

void write_breakdown_json(json::Writer& w, const TimeBreakdown& b) {
  w.raw("{\"transmission_s\":").number(b.transmission.count(), 9);
  w.raw(",\"reconfiguration_s\":").number(b.reconfiguration.count(), 9);
  w.raw(",\"conversion_s\":").number(b.conversion.count(), 9);
  w.raw(",\"processing_s\":").number(b.processing.count(), 9);
  w.raw(",\"straggler_wait_s\":").number(b.straggler_wait.count(), 9);
  w.raw(",\"idle_s\":").number(b.idle.count(), 9).raw("}");
}

}  // namespace

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  transmission += o.transmission;
  reconfiguration += o.reconfiguration;
  conversion += o.conversion;
  processing += o.processing;
  straggler_wait += o.straggler_wait;
  idle += o.idle;
  return *this;
}

Seconds RunReport::max_step_duration() const {
  Seconds out{0.0};
  for (const auto& s : step_reports) out = std::max(out, s.duration);
  return out;
}

std::uint32_t RunReport::max_wavelengths_used() const {
  std::uint32_t out = 0;
  for (const auto& s : step_reports) {
    out = std::max(out, s.wavelengths_used);
  }
  return out;
}

void RunReport::add_counters(const obs::Counters& from) {
  for (const auto& [name, value] : from.snapshot()) counters[name] += value;
}

void RunReport::write_step_csv(const std::string& path) const {
  CsvWriter csv(path, {"step", "label", "start_s", "duration_s", "rounds",
                       "wavelengths_used"});
  for (std::size_t i = 0; i < step_reports.size(); ++i) {
    const StepReport& s = step_reports[i];
    csv.add_row({std::to_string(i), s.label,
                 json::number(s.start.count(), 9),
                 json::number(s.duration.count(), 9),
                 std::to_string(s.rounds),
                 std::to_string(s.wavelengths_used)});
  }
}

void RunReport::write_json(std::ostream& out) const {
  json::Writer w(out);
  w.raw("{\n  \"backend\": \"").str(backend);
  w.raw("\",\n  \"total_time_s\": ").number(total_time.count(), 9);
  w.raw(",\n  \"steps\": ").integer(steps);
  w.raw(",\n  \"rounds\": ").integer(rounds);
  w.raw(",\n  \"events_fired\": ").integer(events_fired);
  w.raw(",\n  \"utilization\": ").number(utilization, 9);
  w.raw(",\n  \"resources_observed\": ").integer(resources_observed);
  w.raw(",\n  \"breakdown\": ");
  write_breakdown_json(w, breakdown);
  w.raw(",\n  \"step_reports\": [");
  for (std::size_t i = 0; i < step_reports.size(); ++i) {
    const StepReport& s = step_reports[i];
    w.raw(i == 0 ? "\n    {\"step\":" : ",\n    {\"step\":").integer(i);
    w.raw(",\"label\":\"").str(s.label);
    w.raw("\",\"start_s\":").number(s.start.count(), 9);
    w.raw(",\"duration_s\":").number(s.duration.count(), 9);
    w.raw(",\"rounds\":").integer(s.rounds);
    w.raw(",\"wavelengths_used\":").integer(s.wavelengths_used);
    w.raw(",\"breakdown\":");
    write_breakdown_json(w, s.breakdown);
    w.raw("}");
  }
  w.raw(step_reports.empty() ? "],\n" : "\n  ],\n");
  w.raw("  \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters) {
    w.raw(first ? "\n    \"" : ",\n    \"").str(name).raw("\": ");
    w.integer(value);
    first = false;
  }
  w.raw(counters.empty() ? "}\n}\n" : "\n  }\n}\n");
  w.flush();
}

void RunReport::write_json_file(const std::string& path) const {
  const prof::ScopedTimer timer("io.run_report.write");
  std::ofstream out(path);
  if (!out) throw Error("RunReport: cannot open '" + path + "'");
  write_json(out);
}

}  // namespace wrht
