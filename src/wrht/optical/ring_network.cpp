#include "wrht/optical/ring_network.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/sim/simulator.hpp"

namespace wrht::optics {

RingNetwork::RingNetwork(std::uint32_t num_nodes, OpticalConfig config)
    : ring_(num_nodes), config_(config) {
  require(config.wavelengths >= 1, "RingNetwork: need >= 1 wavelength");
  require(config.fibers_per_direction >= 1,
          "RingNetwork: need >= 1 fiber per direction");
  require(config.bytes_per_element >= 1,
          "RingNetwork: bytes_per_element must be >= 1");
  require(config.wavelength_rate.count() > 0.0,
          "RingNetwork: wavelength rate must be positive");
  config.lease.validate(config.wavelengths);
}

Seconds RingNetwork::serialization_time(std::size_t elements) const {
  const double bytes =
      static_cast<double>(elements) * config_.bytes_per_element;
  return Seconds(bytes / config_.bytes_per_second());
}

Seconds RingNetwork::round_time(std::size_t elements) const {
  return config_.mrr_reconfig_delay + config_.oeo_delay +
         serialization_time(elements);
}

Seconds RingNetwork::single_round_estimate(
    const coll::Schedule& schedule) const {
  Seconds total(0.0);
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    if (schedule.steps()[s].transfers.empty()) continue;
    total += round_time(schedule.max_transfer_elements(s));
  }
  return total;
}

RingNetwork::PatternCost RingNetwork::evaluate_step(const coll::Step& step,
                                                    Rng* rng,
                                                    Detail detail) const {
  PatternCost out{};
  if (step.transfers.empty()) return out;

  const RwaOptions options = config_.rwa_options();

  std::vector<std::vector<Lightpath>> round_paths;
  std::vector<std::vector<std::size_t>> round_members;
  std::uint32_t wavelengths_used = 0;
  if (config_.allow_multi_round_steps) {
    RoundsResult rounds = assign_rounds(ring_, step.transfers, options, rng);
    wavelengths_used = rounds.wavelengths_used;
    round_paths = std::move(rounds.paths);
    round_members = std::move(rounds.rounds);
  } else {
    RwaResult rwa = assign_wavelengths(ring_, step.transfers, options, rng);
    if (!rwa.ok) {
      throw InfeasibleSchedule(
          "RingNetwork: step '" + step.label + "' needs more than " +
          std::to_string(config_.lease.width(config_.wavelengths)) +
          " wavelengths (lease " + config_.lease.to_string() +
          ") and multi-round splitting is disabled");
    }
    wavelengths_used = rwa.wavelengths_used;
    round_paths.push_back(std::move(rwa.paths));
    round_members.emplace_back();
    for (std::size_t i = 0; i < step.transfers.size(); ++i) {
      round_members.back().push_back(i);
    }
  }
  return price_rounds(step, wavelengths_used, round_paths, round_members,
                      detail);
}

RingNetwork::PatternCost RingNetwork::price_rounds(
    const coll::Step& step, std::uint32_t wavelengths_used,
    const std::vector<std::vector<Lightpath>>& round_paths,
    const std::vector<std::vector<std::size_t>>& round_members,
    Detail detail) const {
  PatternCost out{};
  out.detail = detail;
  out.cost.wavelengths_used = wavelengths_used;
  out.cost.rounds = static_cast<std::uint32_t>(round_paths.size());
  for (std::size_t r = 0; r < round_paths.size(); ++r) {
    std::size_t max_elements = 0;
    for (const std::size_t idx : round_members[r]) {
      max_elements = std::max(max_elements, step.transfers[idx].count);
    }
    for (const Lightpath& path : round_paths[r]) {
      out.longest_hops = std::max(out.longest_hops, path.hops);
    }
    out.cost.max_transfer_elements =
        std::max(out.cost.max_transfer_elements, max_elements);
    out.round_serialization.push_back(serialization_time(max_elements));
    if (config_.validate_node_capacity ||
        config_.reconfig_policy == net::ReconfigPolicy::kOnRetune ||
        detail == Detail::kTuned) {
      out.round_tunings.push_back(TuningState::from_lightpaths(
          round_paths[r], config_.node_hardware));
    }
    if (detail != Detail::kLean) {
      net::RoundRouting& routing = out.routing.emplace_back();
      routing.transfers.reserve(round_paths[r].size());
      for (std::size_t j = 0; j < round_paths[r].size(); ++j) {
        const std::size_t index = round_members[r][j];
        routing.transfers.push_back(net::RoundTransfer{
            static_cast<std::uint32_t>(index), channel_of(round_paths[r][j]),
            serialization_time(step.transfers[index].count)});
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
  if (!config_.allow_multi_round_steps) return;
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
    pattern_cache_.emplace(
        uncached[s],
        price_rounds(*steps[s], rounds[s].wavelengths_used, rounds[s].paths,
                     rounds[s].rounds, detail));
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
                                      const obs::Probe& probe, Rng* rng,
                                      Seconds start) const {
  return execute_scanned(schedule, scan(schedule), probe, rng, start);
}

OpticalRunResult RingNetwork::execute_scanned(const coll::Schedule& schedule,
                                              const net::ScheduleScan& scan,
                                              const obs::Probe& probe,
                                              Rng* rng, Seconds start) const {
  const net::RoundRecorder recorder(
      probe, schedule,
      {"optical-ring", net::to_string(config_.reconfig_policy),
       config_.mrr_reconfig_delay, config_.oeo_delay},
      net::Lightpaths{config_.bytes_per_element, config_.bytes_per_second(),
                      config_.fibers_per_direction, false});
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
  sim::Simulator simulator(start);
  simulator.set_counters(probe.counters);
  std::size_t next_step = 0;
  const net::ReconfigPolicy policy = config_.reconfig_policy;
  TuningState previous_tuning;  // kOnRetune: last round's MRR state
  // Blame retune walk: replicates the kOnRetune previous-tuning carry
  // (including across steps) under ANY policy, so every RoundTrace can say
  // whether a retune-aware control plane would have charged it.
  TuningState blame_tuning;
  // kOverlapped: the window the next round's retune can hide inside — the
  // previous round's O/E/O + transmission time (zero before round 0, which
  // has nothing to overlap with).
  Seconds overlap_window(0.0);
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
    if (policy == net::ReconfigPolicy::kEveryRound) {
      result.reconfigurations += cost.rounds;
      probe.count("optical.reconfig_charges", cost.rounds);
    }
    // Price each round under the policy, and describe it when observed.
    rounds.clear();
    Seconds cursor = cost.start;
    for (std::size_t r = 0; r < pattern->round_serialization.size(); ++r) {
      const Seconds serialization = pattern->round_serialization[r];
      Seconds reconfig = config_.mrr_reconfig_delay;
      Seconds round = reconfig + config_.oeo_delay + serialization;
      if (policy == net::ReconfigPolicy::kOnRetune) {
        // A round pays the reconfiguration delay only if some micro-ring
        // has to change state relative to the previous round.
        const TuningState& tuning = pattern->round_tunings[r];
        const std::size_t retuned = previous_tuning.retune_count(tuning);
        previous_tuning = tuning;
        if (retuned > 0) {
          ++result.reconfigurations;
          result.retuned_mrrs += retuned;
          probe.count("optical.reconfig_charges");
          probe.count("optical.retuned_mrrs", retuned);
        } else {
          reconfig = Seconds(0.0);
        }
        // Grouped as reconfig + (O/E/O + serialization): the pinned engine
        // records hold this policy's rounding to the bit.
        round = reconfig + (config_.oeo_delay + serialization);
      } else if (policy == net::ReconfigPolicy::kOverlapped) {
        // Every round still retunes, but the retune for round k overlaps
        // round k-1's O/E/O + transmission (the lookahead pipeline of
        // SWOT); only the residual beyond that window lands on the
        // critical path. Round 0 of the run pays in full.
        reconfig = std::max(Seconds(0.0),
                            config_.mrr_reconfig_delay - overlap_window);
        if (reconfig.count() > 0.0) {
          ++result.reconfigurations;
          probe.count("optical.reconfig_charges");
        }
        result.overlap_hidden += config_.mrr_reconfig_delay - reconfig;
        round = reconfig + config_.oeo_delay + serialization;
        overlap_window = config_.oeo_delay + serialization;
      }
      cost.duration += round;
      if (!observed) continue;
      obs::RoundTrace trace;
      trace.start = cursor;
      trace.reconfig = reconfig;
      trace.full_reconfig = config_.mrr_reconfig_delay;
      trace.conversion = config_.oeo_delay;
      trace.serialization = serialization;
      trace.duration = round;
      if (blame) {
        trace.retune = blame_tuning.retune_count(pattern->round_tunings[r]) > 0;
        blame_tuning = pattern->round_tunings[r];
      }
      rounds.push_back(
          net::PricedRound{std::move(trace), &pattern->routing[r]});
      cursor += round;
    }

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

  // total_time is a duration, not an end timestamp — a job admitted at
  // start != 0 still reports how long it ran.
  result.total_time = simulator.now() - start;
  result.events_fired = simulator.events_fired();
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
