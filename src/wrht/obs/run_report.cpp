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

void write_breakdown_json(std::ostream& out, const TimeBreakdown& b) {
  out << "{\"transmission_s\":" << json::number(b.transmission.count(), 9)
      << ",\"reconfiguration_s\":"
      << json::number(b.reconfiguration.count(), 9)
      << ",\"conversion_s\":" << json::number(b.conversion.count(), 9)
      << ",\"processing_s\":" << json::number(b.processing.count(), 9)
      << ",\"straggler_wait_s\":"
      << json::number(b.straggler_wait.count(), 9)
      << ",\"idle_s\":" << json::number(b.idle.count(), 9) << "}";
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
  out << "{\n";
  out << "  \"backend\": \"" << json::escape(backend) << "\",\n";
  out << "  \"total_time_s\": " << json::number(total_time.count(), 9)
      << ",\n";
  out << "  \"steps\": " << steps << ",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"events_fired\": " << events_fired << ",\n";
  out << "  \"utilization\": " << json::number(utilization, 9) << ",\n";
  out << "  \"resources_observed\": " << resources_observed << ",\n";
  out << "  \"breakdown\": ";
  write_breakdown_json(out, breakdown);
  out << ",\n  \"step_reports\": [";
  for (std::size_t i = 0; i < step_reports.size(); ++i) {
    const StepReport& s = step_reports[i];
    out << (i == 0 ? "" : ",") << "\n    {\"step\":" << i << ",\"label\":\""
        << json::escape(s.label)
        << "\",\"start_s\":" << json::number(s.start.count(), 9)
        << ",\"duration_s\":" << json::number(s.duration.count(), 9)
        << ",\"rounds\":" << s.rounds
        << ",\"wavelengths_used\":" << s.wavelengths_used
        << ",\"breakdown\":";
    write_breakdown_json(out, s.breakdown);
    out << "}";
  }
  out << (step_reports.empty() ? "" : "\n  ") << "],\n";
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << "\n    \"" << json::escape(name)
        << "\": " << value;
    first = false;
  }
  out << (counters.empty() ? "" : "\n  ") << "}\n";
  out << "}\n";
}

void RunReport::write_json_file(const std::string& path) const {
  const prof::ScopedTimer timer("io.run_report.write");
  std::ofstream out(path);
  if (!out) throw Error("RunReport: cannot open '" + path + "'");
  write_json(out);
}

}  // namespace wrht
