#include "wrht/net/schedule_only.hpp"

#include "wrht/common/error.hpp"

namespace wrht::net {

RunReport ScheduleOnlyBackend::execute(const coll::Schedule& schedule,
                                       const obs::Probe& probe) const {
  require(schedule.num_nodes() <= num_nodes_,
          "ScheduleOnlyBackend: schedule spans more nodes than configured");
  count_schedule(probe, scan_schedule(schedule, StepKeys::kNone));

  RunReport report;
  report.backend = name();
  report.steps = schedule.num_steps();
  report.step_reports.reserve(schedule.num_steps());
  for (std::size_t i = 0; i < schedule.num_steps(); ++i) {
    const coll::Step& step = schedule.steps()[i];
    StepReport sr;
    sr.label = step.label.empty() ? "step " + std::to_string(i) : step.label;
    sr.rounds = step.transfers.empty() ? 0 : 1;
    report.rounds += sr.rounds;
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = sr.label;
      span.category = "schedule-step";
      probe.span(span);
    }
    report.step_reports.push_back(std::move(sr));
  }
  return report;
}

}  // namespace wrht::net
