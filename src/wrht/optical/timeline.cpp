#include "wrht/optical/timeline.hpp"

#include <algorithm>
#include <cstdio>

#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"

namespace wrht::optics {

void write_timeline_csv(const OpticalRunResult& result,
                        const std::string& path) {
  CsvWriter csv(path, {"step", "start_s", "duration_s", "rounds",
                       "wavelengths", "max_transfer_elements"});
  for (std::size_t i = 0; i < result.step_costs.size(); ++i) {
    const StepCost& c = result.step_costs[i];
    char start[32], duration[32];
    std::snprintf(start, sizeof start, "%.9f", c.start.count());
    std::snprintf(duration, sizeof duration, "%.9f", c.duration.count());
    csv.add_row({std::to_string(i), start, duration,
                 std::to_string(c.rounds), std::to_string(c.wavelengths_used),
                 std::to_string(c.max_transfer_elements)});
  }
}

void print_timeline(const RunReport& report, std::ostream& os,
                    std::size_t width) {
  require(width >= 10, "print_timeline: width too small");
  const double total = report.total_time.count();
  if (total <= 0.0 || report.step_reports.empty()) {
    os << "(empty timeline)\n";
    return;
  }
  for (std::size_t i = 0; i < report.step_reports.size(); ++i) {
    const StepReport& s = report.step_reports[i];
    const auto offset = static_cast<std::size_t>(
        s.start.count() / total * static_cast<double>(width));
    auto len = static_cast<std::size_t>(
        s.duration.count() / total * static_cast<double>(width));
    len = std::max<std::size_t>(len, 1);
    char line[32];
    std::snprintf(line, sizeof line, "%4zu ", i);
    os << line << std::string(std::min(offset, width), ' ')
       << std::string(std::min(len, width - std::min(offset, width)), '#')
       << "  " << to_string(s.duration) << " x" << s.rounds << " rounds, "
       << s.wavelengths_used << " lambdas\n";
  }
}

}  // namespace wrht::optics
