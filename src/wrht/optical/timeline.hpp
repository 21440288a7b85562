// Timeline export: per-step start/duration/rounds/wavelengths of an
// optical run, as CSV (for plotting) or an ASCII Gantt sketch (for the
// terminal).
#pragma once

#include <ostream>
#include <string>

#include "wrht/obs/run_report.hpp"
#include "wrht/optical/ring_network.hpp"

namespace wrht::optics {

/// Writes step_costs as CSV: step,start_s,duration_s,rounds,wavelengths,
/// max_transfer_elements.
void write_timeline_csv(const OpticalRunResult& result,
                        const std::string& path);

/// Renders a proportional ASCII timeline (one row per step, bar length
/// proportional to duration), at most `width` columns, from the
/// backend-neutral report (StepReport carries start/duration/rounds/
/// wavelengths); an OpticalRunResult prints through to_report().
void print_timeline(const RunReport& report, std::ostream& os,
                    std::size_t width = 60);

}  // namespace wrht::optics
