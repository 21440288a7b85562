#include "wrht/net/backend.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"
#include "wrht/obs/analysis.hpp"

namespace wrht::net {

Backend::~Backend() = default;

RunReport Backend::execute_at(const coll::Schedule& schedule,
                              const obs::Probe& probe, Seconds start) const {
  RunReport report = execute(schedule, probe);
  for (StepReport& step : report.step_reports) step.start += start;
  return report;
}

ScopedUtilization::ScopedUtilization(const obs::Probe& probe, bool collect)
    : probe_(probe) {
  if (collect && probe_.occupancy == nullptr) probe_.occupancy = &sampler_;
}

void ScopedUtilization::finish(RunReport& report) const {
  if (probe_.occupancy == nullptr) return;
  obs::attach_utilization(report, *probe_.occupancy);
}

void count_schedule(const obs::Probe& probe, const ScheduleScan& scan) {
  if (probe.counters == nullptr) return;
  probe.count("net.executions");
  probe.count("net.steps", scan.steps);
  probe.count("net.traffic_elements", scan.traffic_elements);
}

std::string step_label(const coll::Step& step, std::size_t index) {
  return step.label.empty() ? "step " + std::to_string(index) : step.label;
}

std::string channel_name(std::string_view lane, const Channel& channel,
                         std::uint32_t fibers_per_direction) {
  std::string name(lane);
  if (!name.empty()) name += '/';
  name += channel.direction == 0 ? "cw" : "ccw";
  if (fibers_per_direction > 1) name += "/f" + std::to_string(channel.fiber);
  name += "/w" + std::to_string(channel.wavelength);
  return name;
}

void RoundRouting::aggregate_channels() {
  channels.clear();
  for (const RoundTransfer& t : transfers) {
    channels.push_back(ChannelUse{t.channel, t.duration, 1});
  }
  std::sort(channels.begin(), channels.end(),
            [](const ChannelUse& a, const ChannelUse& b) {
              return a.channel < b.channel;
            });
  // Merge each channel's sharers: it transmits until the slowest finishes.
  std::size_t kept = 0;
  for (const ChannelUse& use : channels) {
    if (kept > 0 && channels[kept - 1].channel == use.channel) {
      ChannelUse& merged = channels[kept - 1];
      merged.serialization = std::max(merged.serialization, use.serialization);
      ++merged.concurrency;
    } else {
      channels[kept++] = use;
    }
  }
  channels.resize(kept);
}

RoundRecorder::RoundRecorder(const obs::Probe& probe,
                             const coll::Schedule& schedule,
                             obs::TransferLog::Context context,
                             std::optional<Lightpaths> lightpaths)
    : log_(probe.transfers),
      channels_(lightpaths ? probe.occupancy : nullptr),
      lightpaths_(lightpaths) {
  // A sink holds one run: a second run's records would merge into the
  // first's timeline.
  require(log_ == nullptr || log_->empty(),
          "RoundRecorder: the transfer log already holds a run");
  require(probe.occupancy == nullptr || probe.occupancy->empty(),
          "RoundRecorder: the occupancy sampler already holds a run");
  if (log_ == nullptr) return;
  log_->set_context(std::move(context));
  // Every transfer of a non-empty step is logged once, in one round.
  std::size_t steps = 0;
  std::size_t transfers = 0;
  for (const coll::Step& step : schedule.steps()) {
    if (step.transfers.empty()) continue;
    ++steps;
    transfers += step.transfers.size();
  }
  log_->reserve(steps, transfers);
}

void RoundRecorder::record(const coll::Step& step,
                           const PricedStep& priced) const {
  if (step.transfers.empty()) return;
  if (log_ != nullptr) {
    log_->step(obs::StepTrace{priced.index, step_label(step, priced.index),
                              priced.start, priced.duration});
    for (const PricedLane& lane : priced.lanes) {
      const std::uint32_t lane_id = log_->intern_lane(lane.name);
      for (std::uint32_t r = 0; r < lane.rounds.size(); ++r) {
        const PricedRound& round = lane.rounds[r];
        const Seconds payload_start = round.trace.start +
                                      round.trace.reconfig +
                                      round.trace.conversion;
        obs::RoundTrace trace = round.trace;
        trace.step = priced.index;
        trace.lane = lane.name;
        trace.round = r;
        log_->round(std::move(trace));
        for (const RoundTransfer& routed : round.routing->transfers) {
          const coll::Transfer& t = step.transfers[routed.index];
          const Seconds duration =
              lightpaths_ ? Seconds(static_cast<double>(t.count) *
                                    lightpaths_->bytes_per_element /
                                    lightpaths_->bytes_per_second)
                          : routed.duration;
          log_->transfer(obs::TransferTrace{
              priced.index, lane_id, r, t.src, t.dst, t.count,
              routed.channel.wavelength, routed.channel.direction,
              payload_start, duration});
        }
      }
    }
  }
  if (channels_ != nullptr) record_channels(priced);
}

// Per channel, each round decomposes into MRR reconfiguration (only what
// the policy charged: under kOverlapped the hidden part happened during
// the previous round's transmission), O/E/O conversion, payload
// transmission, then straggler wait until the round ends. Unused channels
// stay unaccounted (idle).
void RoundRecorder::record_channels(const PricedStep& priced) const {
  const Seconds step_end = priced.start + priced.duration;
  std::vector<obs::OccupancySampler::ResourceRef> held;
  for (const PricedLane& lane : priced.lanes) {
    const std::string_view prefix = lightpaths_->lane_channels
                                        ? std::string_view(lane.name)
                                        : std::string_view();
    Seconds cursor = priced.start;
    held.clear();
    for (const PricedRound& round : lane.rounds) {
      const Seconds round_end = cursor + round.trace.duration;
      for (const ChannelUse& use : round.routing->channels) {
        const auto ref = channels_->resource(channel_name(
            prefix, use.channel, lightpaths_->fibers_per_direction));
        Seconds at = cursor;
        channels_->record(ref, priced.index, at, round.trace.reconfig,
                          obs::OccCategory::kReconfiguration);
        at += round.trace.reconfig;
        channels_->record(ref, priced.index, at, round.trace.conversion,
                          obs::OccCategory::kConversion);
        at += round.trace.conversion;
        channels_->record(ref, priced.index, at, use.serialization,
                          obs::OccCategory::kTransmission, use.concurrency);
        at += use.serialization;
        channels_->record(ref, priced.index, at, round_end - at,
                          obs::OccCategory::kStragglerWait);
        if (lightpaths_->lane_channels &&
            std::find(held.begin(), held.end(), ref) == held.end()) {
          held.push_back(ref);
        }
      }
      cursor = round_end;
    }
    for (const auto ref : held) {
      channels_->record(ref, priced.index, cursor, step_end - cursor,
                        obs::OccCategory::kStragglerWait);
    }
  }
}

std::vector<StepReport> uniform_step_reports(
    const std::vector<Seconds>& step_times) {
  std::vector<StepReport> out;
  out.reserve(step_times.size());
  Seconds cursor(0.0);
  for (std::size_t i = 0; i < step_times.size(); ++i) {
    StepReport step;
    step.label = "step " + std::to_string(i);
    step.start = cursor;
    step.duration = step_times[i];
    out.push_back(std::move(step));
    cursor += step_times[i];
  }
  return out;
}

}  // namespace wrht::net
