#include "wrht/optical/ring_network.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/sim/simulator.hpp"

namespace wrht::optics {

namespace {

/// The last round's MRR state a retune walk compares the next round with.
/// It points into the pattern that priced the round: the pattern cache
/// keeps its entries in place for the whole run (it re-prices an entry
/// only on the entry's first hit in a run). A pattern priced outside the
/// cache dies with its step, so its state is copied first.
class LastTuning {
 public:
  LastTuning() = default;
  LastTuning(const LastTuning&) = delete;
  LastTuning& operator=(const LastTuning&) = delete;

  [[nodiscard]] const TuningState& get() const { return *last_; }
  void set(const TuningState& tuning, bool transient) {
    if (transient) {
      held_ = tuning;
      last_ = &held_;
    } else {
      last_ = &tuning;
    }
  }

 private:
  TuningState held_;
  const TuningState* last_ = &held_;
};

}  // namespace

void OpticalConfig::validate() const {
  require(wavelengths >= 1, "OpticalConfig: need >= 1 wavelength");
  require(bytes_per_element >= 1,
          "OpticalConfig: bytes_per_element must be >= 1");
  require(wavelength_rate.count() > 0.0,
          "OpticalConfig: wavelength rate must be positive");
  require(mrr_reconfig_delay.count() >= 0.0,
          "OpticalConfig: mrr_reconfig_delay must be >= 0");
  require(oeo_delay.count() >= 0.0, "OpticalConfig: oeo_delay must be >= 0");
  lease.validate(wavelengths);
}

RingNetwork::RingNetwork(std::uint32_t num_nodes, OpticalConfig config)
    : ring_(num_nodes), config_(config) {
  config_.validate();
}

RingNetwork::PatternCost RingNetwork::evaluate_step(const coll::Step& step,
                                                    Rng* rng,
                                                    Detail detail) const {
  if (step.transfers.empty()) return PatternCost{};
  return describe_rounds(
      step,
      assign_rounds(ring_, step.transfers, config_.rwa_options(), rng),
      detail);
}

RingNetwork::PatternCost RingNetwork::describe_rounds(
    const coll::Step& step, const RoundsResult& rounds, Detail detail) const {
  if (!config_.allow_multi_round_steps && rounds.rounds > 1) {
    throw InfeasibleSchedule(
        "RingNetwork: step '" + step.label + "' needs more than " +
        std::to_string(config_.lease.width(config_.wavelengths)) +
        " wavelengths (lease " + config_.lease.to_string() +
        ") and multi-round splitting is disabled");
  }
  PatternCost out{};
  out.detail = detail;
  out.cost.wavelengths_used = rounds.wavelengths_used;
  out.cost.rounds = rounds.rounds;
  out.longest_hops = rounds.longest_hops;
  // Each round's largest transfer, in one pass over the placements.
  std::vector<std::size_t> largest(rounds.rounds, 0);
  for (std::size_t i = 0; i < rounds.placements.size(); ++i) {
    std::size_t& max_elements = largest[rounds.placements[i].round];
    max_elements = std::max(max_elements, step.transfers[i].count);
  }
  for (const std::size_t max_elements : largest) {
    out.cost.max_transfer_elements =
        std::max(out.cost.max_transfer_elements, max_elements);
    out.round_serialization.push_back(
        config_.serialization_time(max_elements));
  }
  if (config_.validate_node_capacity ||
      config_.reconfig_policy == net::ReconfigPolicy::kOnRetune ||
      detail == Detail::kTuned) {
    // A TuningState is a set: each round's lightpaths in input order.
    std::vector<std::vector<Lightpath>> paths(rounds.rounds);
    for (std::size_t i = 0; i < rounds.placements.size(); ++i) {
      const Placement& at = rounds.placements[i];
      paths[at.round].push_back(
          lightpath_of(ring_, step.transfers[i], at.wavelength));
    }
    for (const std::vector<Lightpath>& round : paths) {
      out.round_tunings.push_back(
          TuningState::from_lightpaths(round, config_.node_hardware));
    }
  }
  if (detail != Detail::kLean) {
    // A routed round lists its transfers in hop order, as the transfer log
    // records them.
    const HopOrderedRounds lists = hop_ordered(ring_, step.transfers, rounds);
    for (std::size_t r = 0; r < lists.rounds.size(); ++r) {
      net::RoundRouting& routing = out.routing.emplace_back();
      routing.transfers.reserve(lists.rounds[r].size());
      for (std::size_t j = 0; j < lists.rounds[r].size(); ++j) {
        const std::size_t index = lists.rounds[r][j];
        routing.transfers.push_back(net::RoundTransfer{
            static_cast<std::uint32_t>(index), channel_of(lists.paths[r][j]),
            config_.serialization_time(step.transfers[index].count)});
      }
      routing.aggregate_channels();
    }
  }
  return out;
}

OpticalRunResult RingNetwork::execute(const coll::Schedule& schedule,
                                      Rng* rng) const {
  return execute(schedule, obs::Probe{}, rng);
}

void RingNetwork::warm_pattern_cache(
    const coll::Schedule& schedule,
    const std::vector<std::uint64_t>& signatures, Detail detail) const {
  if (config_.rwa_policy != RwaPolicy::kFirstFit) return;
  const unsigned workers = resolve_rwa_threads(config_.rwa_threads);
  if (workers <= 1) return;

  // Distinct uncached patterns in first-occurrence order, so the batch's
  // lowest-index-failure rethrow matches what the sequential DES loop
  // would have thrown first.
  std::vector<const coll::Step*> steps;
  std::vector<std::uint64_t> uncached;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const coll::Step& step = schedule.steps()[s];
    if (step.transfers.empty()) continue;
    const std::uint64_t sig = signatures[s];
    if (pattern_cache_.contains(sig) || !seen.insert(sig).second) continue;
    steps.push_back(&step);
    uncached.push_back(sig);
  }
  if (steps.size() <= 1) return;

  const RwaOptions options = config_.rwa_options();
  std::vector<std::span<const coll::Transfer>> spans;
  spans.reserve(steps.size());
  for (const coll::Step* step : steps) spans.emplace_back(step->transfers);
  const std::vector<RoundsResult> rounds =
      assign_rounds_batch(ring_, spans, options, workers);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    pattern_cache_.emplace(uncached[s],
                           describe_rounds(*steps[s], rounds[s], detail));
  }
}

net::ScheduleScan RingNetwork::scan(const coll::Schedule& schedule) const {
  require(schedule.num_nodes() <= ring_.size(),
          "RingNetwork: schedule spans more nodes than the ring");
  // Only first-fit patterns are cached. Direction hints participate in the
  // key: pinned-direction variants of one (src, dst) pattern route
  // differently.
  const bool cached = config_.rwa_policy == RwaPolicy::kFirstFit;
  return net::scan_schedule(
      schedule, cached ? net::StepKeys::kDirected : net::StepKeys::kNone);
}

OpticalRunResult RingNetwork::execute(const coll::Schedule& schedule,
                                      const obs::Probe& probe,
                                      Rng* rng) const {
  return execute_scanned(schedule, scan(schedule), probe, rng);
}

OpticalRunResult RingNetwork::execute_scanned(const coll::Schedule& schedule,
                                              const net::ScheduleScan& scan,
                                              const obs::Probe& probe,
                                              Rng* rng) const {
  const net::RoundRecorder recorder(
      probe, schedule,
      {"optical-ring", net::to_string(config_.reconfig_policy),
       config_.mrr_reconfig_delay, config_.oeo_delay},
      net::Lightpaths{config_.bytes_per_element, config_.bytes_per_second(),
                      false});
  const bool blame = probe.transfers != nullptr;
  const bool observed = probe.trace != nullptr || recorder.active();
  const Detail detail = blame      ? Detail::kTuned
                        : observed ? Detail::kRouted
                                   : Detail::kLean;
  warm_pattern_cache(schedule, scan.signatures, detail);

  OpticalRunResult result;
  result.steps = schedule.num_steps();
  result.step_costs.reserve(schedule.num_steps());

  // Drive the steps through the event kernel: each step-completion event
  // evaluates (or cache-hits) the next step and schedules its completion.
  sim::Simulator simulator;
  simulator.set_counters(probe.counters);
  std::size_t next_step = 0;
  const net::ReconfigPolicy policy = config_.reconfig_policy;
  net::RoundClock clock(policy, config_.mrr_reconfig_delay,
                        config_.oeo_delay);
  // The retune walk: whether a round's MRR tuning differs from the previous
  // round's, carried across steps. The clock reads it under kOnRetune, and
  // a blamed run records it under any policy, so every RoundTrace can say
  // whether a retune-aware control plane would have charged it.
  const bool walk = policy == net::ReconfigPolicy::kOnRetune || blame;
  LastTuning last_tuning;
  // The observed step's one lane, reused across steps.
  net::PricedStep priced;
  priced.lanes.push_back(net::PricedLane{"ring", {}});
  std::vector<net::PricedRound>& rounds = priced.lanes.front().rounds;

  std::function<void()> launch = [&]() {
    if (next_step >= schedule.num_steps()) return;
    const coll::Step& step = schedule.steps()[next_step];
    const std::size_t step_index = next_step;
    ++next_step;

    PatternCost uncached;  // empty steps and random-fit patterns
    const PatternCost* pattern = &uncached;
    if (!step.transfers.empty()) {
      if (config_.rwa_policy != RwaPolicy::kFirstFit) {
        // Random-fit assignments differ run to run; never cache them.
        uncached = evaluate_step(step, rng, detail);
      } else {
        const std::uint64_t sig = scan.signatures[step_index];
        auto it = pattern_cache_.find(sig);
        if (it == pattern_cache_.end()) {
          it = pattern_cache_.emplace(sig, evaluate_step(step, rng, detail))
                   .first;
        } else if (it->second.detail < detail) {
          it->second = evaluate_step(step, rng, detail);
        }
        pattern = &it->second;
      }
    }

    StepCost cost = pattern->cost;
    cost.label = step.label;
    cost.start = simulator.now();
    const std::uint64_t charges_before = clock.charges();
    // Price each round on the clock, and describe it when observed.
    rounds.clear();
    Seconds cursor = cost.start;
    for (std::size_t r = 0; r < pattern->round_serialization.size(); ++r) {
      const Seconds serialization = pattern->round_serialization[r];
      bool retunes = true;
      if (walk) {
        const TuningState& tuning = pattern->round_tunings[r];
        const std::size_t retuned = last_tuning.get().retune_count(tuning);
        last_tuning.set(tuning, pattern == &uncached);
        retunes = retuned > 0;
        if (retunes && policy == net::ReconfigPolicy::kOnRetune) {
          result.retuned_mrrs += retuned;
          probe.count("optical.retuned_mrrs", retuned);
        }
      }
      const net::RoundClock::Round round = clock.next(serialization, retunes);
      cost.duration += round.duration;
      if (!observed) continue;
      obs::RoundTrace trace;
      trace.start = cursor;
      trace.reconfig = round.reconfig;
      trace.full_reconfig = config_.mrr_reconfig_delay;
      trace.conversion = config_.oeo_delay;
      trace.serialization = serialization;
      trace.duration = round.duration;
      trace.retune = retunes;
      rounds.push_back(
          net::PricedRound{std::move(trace), &pattern->routing[r]});
      cursor += round.duration;
    }
    probe.count("optical.reconfig_charges", clock.charges() - charges_before);

    result.step_costs.push_back(cost);
    result.total_rounds += cost.rounds;
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.longest_lightpath_hops =
        std::max(result.longest_lightpath_hops, pattern->longest_hops);

    probe.count("optical.steps");
    probe.count("optical.rounds", cost.rounds);
    if (cost.rounds > 1) probe.count("optical.multi_round_steps");
    probe.count_max("optical.max_wavelengths_used", cost.wavelengths_used);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = net::step_label(step, step_index);
      span.category = "step";
      span.start = cost.start;
      span.duration = cost.duration;
      span.args = {
          {"rounds", std::to_string(cost.rounds)},
          {"wavelengths", std::to_string(cost.wavelengths_used)},
          {"max_transfer_elements",
           std::to_string(cost.max_transfer_elements)}};
      probe.span(span);
      for (std::size_t r = 0; r < rounds.size(); ++r) {
        // Distinct wavelengths carrying traffic this round; the highest one
        // is the round's wavelength high-water mark.
        std::set<std::uint32_t> lambdas;
        for (const net::ChannelUse& use : rounds[r].routing->channels) {
          lambdas.insert(use.channel.wavelength);
        }
        obs::TraceSpan round;
        round.name = "round " + std::to_string(r);
        round.category = "round";
        round.start = rounds[r].trace.start;
        round.duration = rounds[r].trace.duration;
        round.args = {
            {"serialization_us",
             std::to_string(rounds[r].trace.serialization.micros())},
            {"wavelengths",
             std::to_string(lambdas.empty() ? 0 : *lambdas.rbegin() + 1)}};
        probe.span(round);
        // Counter track: holds until the next round's sample.
        probe.counter_sample("wavelengths in use", round.start,
                             static_cast<double>(lambdas.size()));
      }
    }
    priced.index = static_cast<std::uint32_t>(step_index);
    priced.start = cost.start;
    priced.duration = cost.duration;
    recorder.record(step, priced);
    simulator.schedule_in(cost.duration, launch);
  };

  simulator.schedule_in(Seconds(0.0), launch);
  {
    // Host-side phase accounting: the DES drain is where the optical model
    // spends its wall time (step evaluation runs inside launch callbacks).
    const prof::ScopedTimer timer("optical.des.run");
    simulator.run();
  }

  result.total_time = simulator.now();
  result.events_fired = simulator.events_fired();
  result.reconfigurations = clock.charges();
  result.overlap_hidden = clock.hidden();
  // Close the counter track so the last round's value does not hold past
  // the end of the run in the viewer.
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", simulator.now(), 0.0);
  }
  return result;
}

RunReport OpticalRunResult::to_report() const {
  RunReport report;
  report.backend = "optical-ring";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = total_rounds;
  report.events_fired = events_fired;
  report.step_reports.reserve(step_costs.size());
  for (const StepCost& cost : step_costs) {
    StepReport step;
    step.label = cost.label;
    step.start = cost.start;
    step.duration = cost.duration;
    step.rounds = cost.rounds;
    step.wavelengths_used = cost.wavelengths_used;
    report.step_reports.push_back(std::move(step));
  }
  return report;
}

}  // namespace wrht::optics
