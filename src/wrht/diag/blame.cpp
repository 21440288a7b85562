#include "wrht/diag/blame.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "wrht/common/error.hpp"
#include "wrht/obs/trace_json.hpp"

namespace wrht::diag {

std::string to_string(BlameCategory category) {
  switch (category) {
    case BlameCategory::kQueueing:
      return "queueing";
    case BlameCategory::kFragmentation:
      return "fragmentation";
    case BlameCategory::kReconfiguration:
      return "reconfiguration";
    case BlameCategory::kConversion:
      return "conversion";
    case BlameCategory::kTransmission:
      return "transmission";
    case BlameCategory::kProcessing:
      return "processing";
    case BlameCategory::kStragglerWait:
      return "straggler_wait";
  }
  return "unknown";
}

const std::array<BlameCategory, kNumBlameCategories>& all_blame_categories() {
  static const std::array<BlameCategory, kNumBlameCategories> kAll = {
      BlameCategory::kQueueing,        BlameCategory::kFragmentation,
      BlameCategory::kReconfiguration, BlameCategory::kConversion,
      BlameCategory::kTransmission,    BlameCategory::kProcessing,
      BlameCategory::kStragglerWait};
  return kAll;
}

double BlameTotals::total() const {
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum;
}

BlameTotals& BlameTotals::operator+=(const BlameTotals& other) {
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] += other.seconds[i];
  }
  return *this;
}

namespace {

/// One lane's round chain within one step. std::map keys keep lanes in
/// lexicographic order, which is also the deterministic tie-break when two
/// lanes bound a step equally.
struct LaneChain {
  std::vector<const obs::RoundTrace*> rounds;
  double total = 0.0;
};

using StepLanes = std::map<std::string, LaneChain>;

/// rounds grouped by step id, then lane, preserving emission order (the
/// engines emit each lane's rounds in time order).
std::map<std::uint32_t, StepLanes> group_rounds(const obs::TransferLog& log) {
  std::map<std::uint32_t, StepLanes> steps;
  for (const obs::RoundTrace& round : log.rounds()) {
    LaneChain& chain = steps[round.step][round.lane];
    chain.rounds.push_back(&round);
    chain.total += round.duration.count();
  }
  return steps;
}

/// The step's bounding lane: largest round-duration sum, ties to the
/// lexicographically smallest lane name (map order + strict >).
const LaneChain* bounding_lane(const StepLanes& lanes,
                               const std::string** name_out) {
  const LaneChain* best = nullptr;
  for (const auto& [name, chain] : lanes) {
    if (best == nullptr || chain.total > best->total) {
      best = &chain;
      if (name_out != nullptr) *name_out = &name;
    }
  }
  return best;
}

/// Generic what-if re-pricing: recompute every round's cost with
/// `round_cost`, re-chain each lane, re-max the lanes per step, and re-sum
/// the steps — the longest path of the DAG with the edit applied.
template <typename RoundCost>
double recompute_makespan(const obs::TransferLog& log, RoundCost round_cost) {
  double total = 0.0;
  for (const auto& [step, lanes] : group_rounds(log)) {
    double slowest = 0.0;
    for (const auto& [name, chain] : lanes) {
      double lane_total = 0.0;
      for (const obs::RoundTrace* round : chain.rounds) {
        lane_total += std::max(0.0, round_cost(*round));
      }
      slowest = std::max(slowest, lane_total);
    }
    total += slowest;
  }
  return total;
}

}  // namespace

BlameReport build_blame(const obs::TransferLog& log) {
  require(!log.steps().empty(),
          "build_blame: the transfer log records no steps — was the engine "
          "run with probe.transfers attached?");

  BlameReport report;
  report.backend = log.context().backend;
  report.reconfig_policy = log.context().reconfig_policy;
  report.mrr_reconfig_delay = log.context().mrr_reconfig_delay;
  report.oeo_delay = log.context().oeo_delay;
  report.steps = log.steps().size();
  report.rounds = log.rounds().size();
  report.transfers = log.transfers().size();

  // The measured makespan: observed step durations, summed in step order
  // (steps are barriers, so this is the run's longest path by
  // construction).
  Seconds total(0.0);
  for (const obs::StepTrace& step : log.steps()) total += step.duration;
  report.total_time = total;

  std::map<std::string, LaneBlame> lanes;
  for (const auto& [step, step_lanes] : group_rounds(log)) {
    const std::string* bound_name = nullptr;
    const LaneChain* bound = bounding_lane(step_lanes, &bound_name);
    if (bound == nullptr) continue;

    // Attribute the bounding lane's chain — the step's critical path.
    for (const obs::RoundTrace* round : bound->rounds) {
      const double components =
          round->reconfig.count() + round->conversion.count() +
          round->serialization.count() + round->processing.count();
      const double residual = round->duration.count() - components;
      report.categories[BlameCategory::kReconfiguration] +=
          round->reconfig.count();
      report.categories[BlameCategory::kConversion] +=
          round->conversion.count();
      report.categories[BlameCategory::kTransmission] +=
          round->serialization.count();
      report.categories[BlameCategory::kProcessing] +=
          round->processing.count();
      report.categories[BlameCategory::kStragglerWait] += residual;

      CriticalRound critical;
      critical.step = round->step;
      critical.lane = *bound_name;
      critical.round = round->round;
      critical.start = round->start;
      critical.duration = round->duration;
      critical.reconfig = round->reconfig;
      critical.conversion = round->conversion;
      critical.serialization = round->serialization;
      critical.processing = round->processing;
      critical.retune = round->retune;
      report.critical_path.push_back(std::move(critical));
    }

    // Per-lane resource attribution: own components plus the shortfall
    // against the bounding lane as straggler wait.
    for (const auto& [name, chain] : step_lanes) {
      LaneBlame& lane = lanes[name];
      lane.lane = name;
      lane.busy += Seconds(chain.total);
      for (const obs::RoundTrace* round : chain.rounds) {
        lane.totals[BlameCategory::kReconfiguration] +=
            round->reconfig.count();
        lane.totals[BlameCategory::kConversion] += round->conversion.count();
        lane.totals[BlameCategory::kTransmission] +=
            round->serialization.count();
        lane.totals[BlameCategory::kProcessing] += round->processing.count();
        lane.totals[BlameCategory::kStragglerWait] +=
            round->duration.count() -
            (round->reconfig.count() + round->conversion.count() +
             round->serialization.count() + round->processing.count());
      }
      lane.totals[BlameCategory::kStragglerWait] +=
          bound->total - chain.total;
    }
  }

  report.lanes.reserve(lanes.size());
  for (auto& [name, lane] : lanes) report.lanes.push_back(std::move(lane));
  return report;
}

Seconds what_if_zero(const obs::TransferLog& log, BlameCategory category) {
  return Seconds(recompute_makespan(log, [&](const obs::RoundTrace& r) {
    switch (category) {
      case BlameCategory::kReconfiguration:
        return r.duration.count() - r.reconfig.count();
      case BlameCategory::kConversion:
        return r.duration.count() - r.conversion.count();
      case BlameCategory::kTransmission:
        return r.duration.count() - r.serialization.count();
      case BlameCategory::kProcessing:
        return r.duration.count() - r.processing.count();
      case BlameCategory::kStragglerWait:
        // Drop the in-round residual; the cross-lane straggler component
        // disappears on its own when the lanes are re-maxed.
        return r.reconfig.count() + r.conversion.count() +
               r.serialization.count() + r.processing.count();
      case BlameCategory::kQueueing:
      case BlameCategory::kFragmentation:
        return r.duration.count();  // service-level; not on engine rounds
    }
    return r.duration.count();
  }));
}

Seconds what_if_on_retune(const obs::TransferLog& log) {
  return Seconds(recompute_makespan(log, [](const obs::RoundTrace& r) {
    const double reconfig = r.retune ? r.full_reconfig.count() : 0.0;
    return r.duration.count() - r.reconfig.count() + reconfig;
  }));
}

std::string BlameReport::to_string() const {
  std::string out = "blame [" + backend + ", policy " + reconfig_policy +
                    "]\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-16s %12.6e s\n", "total",
                total_time.count());
  out += line;
  const double denom = total_time.count() > 0.0 ? total_time.count() : 1.0;
  for (const BlameCategory category : all_blame_categories()) {
    const double s = categories[category];
    if (s == 0.0) continue;
    std::snprintf(line, sizeof(line), "  %-16s %12.6e s  (%5.1f%%)\n",
                  diag::to_string(category).c_str(), s, 100.0 * s / denom);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  critical path: %zu rounds over %zu steps, %zu lanes\n",
                critical_path.size(), steps, lanes.size());
  out += line;
  return out;
}

void export_critical_path(const BlameReport& report,
                          obs::ChromeTraceSink& sink) {
  constexpr std::uint32_t kTrack = 0;
  sink.set_track_name(kTrack, "critical path");
  const CriticalRound* previous = nullptr;
  for (const CriticalRound& round : report.critical_path) {
    obs::TraceSpan span;
    span.name = "s";  // appended: see ResourceLease::to_string
    span.name.append(std::to_string(round.step)).append("/")
        .append(round.lane).append("/r").append(std::to_string(round.round));
    span.category = "blame";
    span.start = round.start;
    span.duration = round.duration;
    span.track = kTrack;
    span.num_args = {
        {"reconfiguration_us", round.reconfig.micros()},
        {"conversion_us", round.conversion.micros()},
        {"transmission_us", round.serialization.micros()},
        {"processing_us", round.processing.micros()},
        {"retune", round.retune ? 1.0 : 0.0}};
    sink.span(std::move(span));
    if (previous != nullptr) {
      obs::FlowArrow arrow;
      arrow.name = "critical path";
      arrow.category = "blame";
      arrow.start = previous->start + previous->duration;
      arrow.start_track = kTrack;
      arrow.finish = round.start;
      arrow.finish_track = kTrack;
      sink.add_flow(std::move(arrow));
    }
    previous = &round;
  }
}

}  // namespace wrht::diag
