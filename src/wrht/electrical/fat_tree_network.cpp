#include "wrht/electrical/fat_tree_network.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"

namespace wrht::elec {

namespace {

std::vector<double> link_capacities(const topo::FatTree& tree,
                                    const ElectricalConfig& config) {
  return std::vector<double>(tree.num_links(), config.bytes_per_second());
}

constexpr obs::OccupancySampler::ResourceRef kUnregistered = UINT32_MAX;

}  // namespace

LinkOccupancy::LinkOccupancy(obs::OccupancySampler* sampler,
                             std::size_t num_links)
    : sampler_(sampler),
      refs_(sampler != nullptr ? num_links : 0, kUnregistered) {}

void LinkOccupancy::record(LinkId link, std::uint32_t step, Seconds start,
                           Seconds duration, obs::OccCategory category,
                           std::uint32_t concurrency) {
  if (refs_[link] == kUnregistered) {
    refs_[link] = sampler_->resource("link" + std::to_string(link));
  }
  sampler_->record(refs_[link], step, start, duration, category, concurrency);
}

FatTreeNetwork::FatTreeNetwork(std::uint32_t num_hosts,
                               ElectricalConfig config)
    : tree_(num_hosts, config.router_ports),
      config_(config),
      flow_sim_(link_capacities(tree_, config_)) {
  require(config.bytes_per_element >= 1,
          "FatTreeNetwork: bytes_per_element must be >= 1");
  require(config.lease.full() || config.lease_fabric_width > 0,
          "FatTreeNetwork: a sliced lease needs lease_fabric_width");
  config.lease.validate(config.lease_fabric_width);
}

FatTreeNetwork::StepTiming FatTreeNetwork::evaluate_step(
    const coll::Step& step) const {
  std::vector<FlowSpec> flows;
  flows.reserve(step.transfers.size());
  std::vector<std::uint32_t> load(tree_.num_links(), 0);
  for (const auto& t : step.transfers) {
    const auto route = tree_.route(t.src, t.dst);
    FlowSpec flow;
    flow.bytes = static_cast<double>(t.count) * config_.bytes_per_element;
    flow.links = route.links;
    flow.extra_latency = config_.router_delay.count() * route.routers;
    for (const LinkId l : flow.links) ++load[l];
    flows.push_back(std::move(flow));
  }
  std::uint32_t max_load = 0;
  for (const auto l : load) max_load = std::max(max_load, l);

  const FlowResult res = flow_sim_.run(flows);

  StepTiming timing{res.makespan, max_load, res.bottleneck_links,
                    res.rate_recomputations, {}, {}, 0.0};
  // Per-link occupancy: a link transmits until its slowest flow drains,
  // then its flows are in router processing until their completions.
  std::vector<double> busy(tree_.num_links(), 0.0);
  std::vector<double> chain(tree_.num_links(), 0.0);
  double bounding = -1.0;
  timing.flows.transfers.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double drain = res.completion[i] - flows[i].extra_latency;
    for (const LinkId l : flows[i].links) {
      busy[l] = std::max(busy[l], drain);
      chain[l] = std::max(chain[l], res.completion[i]);
    }
    timing.flows.transfers.push_back(net::RoundTransfer{
        static_cast<std::uint32_t>(i), {}, Seconds(res.completion[i])});
    if (res.completion[i] > bounding) {
      bounding = res.completion[i];
      timing.processing = flows[i].extra_latency;
    }
  }
  for (LinkId l = 0; l < tree_.num_links(); ++l) {
    if (load[l] == 0) continue;
    timing.link_occ.push_back(LinkOcc{l, busy[l], chain[l], load[l]});
  }
  return timing;
}

ElectricalRunResult FatTreeNetwork::execute(
    const coll::Schedule& schedule) const {
  return execute(schedule, obs::Probe{});
}

net::ScheduleScan FatTreeNetwork::scan(const coll::Schedule& schedule) const {
  require(schedule.num_nodes() <= tree_.num_hosts(),
          "FatTreeNetwork: schedule spans more nodes than hosts");
  return net::scan_schedule(schedule, net::StepKeys::kUndirected);
}

ElectricalRunResult FatTreeNetwork::execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const {
  return execute_scanned(schedule, scan(schedule), probe);
}

ElectricalRunResult FatTreeNetwork::execute_scanned(
    const coll::Schedule& schedule, const net::ScheduleScan& scan,
    const obs::Probe& probe) const {
  ElectricalRunResult result;
  result.steps = schedule.num_steps();
  result.step_times.reserve(schedule.num_steps());

  const net::RoundRecorder recorder(probe, schedule,
                                    {"electrical-flow", "none"});
  // Link occupancy is one sampler pattern per priced step pattern, added
  // on its first use in the run. A link's sampler handle is registered
  // when the first pattern that loads it is added, so the sampler lists
  // links in the order the run first touches them.
  obs::OccupancySampler* const sampler = probe.occupancy;
  std::vector<obs::OccupancySampler::ResourceRef> link_refs(
      sampler != nullptr ? tree_.num_links() : 0, kUnregistered);
  std::unordered_map<std::uint64_t, obs::OccupancySampler::PatternId>
      sampler_patterns;
  std::vector<obs::OccSlice> slices;
  // Per loaded link: transmission until its slowest flow drains, router
  // processing until the last completion it feeds, then straggler wait
  // until the step ends.
  const auto add_pattern = [&](const StepTiming& timing) {
    slices.clear();
    for (const LinkOcc& occ : timing.link_occ) {
      obs::OccupancySampler::ResourceRef& ref = link_refs[occ.link];
      if (ref == kUnregistered) {
        ref = sampler->resource("link" + std::to_string(occ.link));
      }
      slices.push_back({ref, Seconds(0.0), Seconds(occ.busy_s),
                        obs::OccCategory::kTransmission, occ.load});
      slices.push_back({ref, Seconds(occ.busy_s),
                        Seconds(occ.chain_end_s - occ.busy_s),
                        obs::OccCategory::kProcessing});
      slices.push_back({ref, Seconds(occ.chain_end_s),
                        Seconds(timing.seconds - occ.chain_end_s),
                        obs::OccCategory::kStragglerWait});
    }
    return sampler->add_pattern(slices);
  };
  double now = 0.0;
  std::size_t step_index = 0;
  for (const auto& step : schedule.steps()) {
    probe.count("electrical.steps");
    if (step.transfers.empty()) {
      result.step_times.emplace_back(0.0);
      ++step_index;
      continue;
    }
    const std::uint64_t sig = scan.signatures[step_index];
    auto it = pattern_cache_.find(sig);
    if (it == pattern_cache_.end()) {
      it = pattern_cache_.emplace(sig, evaluate_step(step)).first;
    }
    const StepTiming& timing = it->second;
    const auto step_id = static_cast<std::uint32_t>(step_index);
    result.total_flows += step.transfers.size();
    result.max_link_load = std::max(result.max_link_load, timing.max_link_load);
    result.step_times.emplace_back(timing.seconds);

    probe.count("electrical.flows", step.transfers.size());
    probe.count("electrical.rate_recomputations", timing.rate_recomputations);
    probe.count("electrical.bottleneck_links", timing.bottleneck_links);
    probe.count_max("electrical.max_link_load", timing.max_link_load);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = net::step_label(step, step_index);
      span.category = "flow-step";
      span.start = Seconds(now);
      span.duration = Seconds(timing.seconds);
      span.args = {{"flows", std::to_string(step.transfers.size())},
                   {"max_link_load", std::to_string(timing.max_link_load)},
                   {"bottleneck_links",
                    std::to_string(timing.bottleneck_links)}};
      probe.span(span);
      probe.counter_sample("active flows", Seconds(now),
                           static_cast<double>(step.transfers.size()));
      probe.counter_sample("max link load", Seconds(now),
                           static_cast<double>(timing.max_link_load));
    }
    if (recorder.active()) {
      // One single-round "fabric" lane per step; no reconfigurable optics,
      // so retune is false and the reconfiguration component zero.
      obs::RoundTrace round;
      round.start = Seconds(now);
      round.processing = Seconds(timing.processing);
      round.serialization = Seconds(timing.seconds - timing.processing);
      round.duration = Seconds(timing.seconds);
      round.retune = false;
      net::PricedStep priced{step_id, Seconds(now), Seconds(timing.seconds),
                             {}};
      priced.lanes.push_back({"fabric", {{std::move(round), &timing.flows}}});
      recorder.record(step, priced);
    }
    if (sampler != nullptr) {
      auto [entry, added] = sampler_patterns.try_emplace(sig);
      if (added) entry->second = add_pattern(timing);
      sampler->record_pattern(entry->second, step_id, Seconds(now));
    }
    now += timing.seconds;
    ++step_index;
  }
  result.total_time = Seconds(now);
  if (probe.trace != nullptr && result.total_flows > 0) {
    probe.counter_sample("active flows", result.total_time, 0.0);
    probe.counter_sample("max link load", result.total_time, 0.0);
  }
  return result;
}

RunReport ElectricalRunResult::to_report() const {
  RunReport report;
  report.backend = "electrical-flow";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = step_times.size();  // one fair-sharing round per step
  report.step_reports = net::uniform_step_reports(step_times);
  return report;
}

}  // namespace wrht::elec
