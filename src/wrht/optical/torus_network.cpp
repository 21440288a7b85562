#include "wrht/optical/torus_network.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {

TorusNetwork::TorusNetwork(const topo::Torus& torus, OpticalConfig config)
    : torus_(torus),
      config_(config),
      row_ring_(torus.cols()),
      col_ring_(torus.rows()) {
  require(config.wavelengths >= 1, "TorusNetwork: need >= 1 wavelength");
  require(config.fibers_per_direction >= 1,
          "TorusNetwork: need >= 1 fiber per direction");
  config.lease.validate(config.wavelengths);
}

OpticalRunResult TorusNetwork::execute(const coll::Schedule& schedule,
                                       Rng* rng) const {
  return execute(schedule, obs::Probe{}, rng);
}

net::ScheduleScan TorusNetwork::scan(const coll::Schedule& schedule) const {
  require(schedule.num_nodes() <= torus_.size(),
          "TorusNetwork: schedule spans more nodes than the torus");
  return net::scan_schedule(schedule, net::StepKeys::kNone);
}

OpticalRunResult TorusNetwork::execute(const coll::Schedule& schedule,
                                       const obs::Probe& probe,
                                       Rng* rng) const {
  (void)scan(schedule);
  return execute_scanned(schedule, probe, rng);
}

OpticalRunResult TorusNetwork::execute_scanned(const coll::Schedule& schedule,
                                               const obs::Probe& probe,
                                               Rng* rng) const {
  const RwaOptions options = config_.rwa_options();

  OpticalRunResult result;
  result.steps = schedule.num_steps();
  result.step_costs.reserve(schedule.num_steps());

  const bool overlapped =
      config_.reconfig_policy == net::ReconfigPolicy::kOverlapped;
  const net::RoundRecorder recorder(
      probe, schedule,
      {"optical-torus", net::to_string(config_.reconfig_policy),
       config_.mrr_reconfig_delay, config_.oeo_delay},
      net::Lightpaths{config_.bytes_per_element, config_.bytes_per_second(),
                      config_.fibers_per_direction, true});
  double now = 0.0;
  std::size_t step_index = 0;
  // kOverlapped: window the first round of a step can hide its retune in.
  // Steps are barriers, so every ring's retune for step k proceeds during
  // step k-1's transmissions; later rounds of a ring overlap their own
  // previous round. Step 0 has nothing to overlap with.
  double step_window = 0.0;
  // A recorded step's description: one lane per ring, whose rounds point
  // into `routing`.
  net::PricedStep priced;
  std::deque<net::RoundRouting> routing;
  for (const auto& step : schedule.steps()) {
    // Partition the step's transfers onto their row/column rings,
    // remapping node ids to ring-local positions.
    // Key: (true, row index) for rows, (false, column index) for columns.
    std::map<std::pair<bool, std::uint32_t>, RingShare> shares;
    for (std::size_t t_index = 0; t_index < step.transfers.size();
         ++t_index) {
      const coll::Transfer& t = step.transfers[t_index];
      coll::Transfer local = t;
      local.direction = std::nullopt;  // hints are flat-ring specific
      if (torus_.row_of(t.src) == torus_.row_of(t.dst)) {
        local.src = torus_.col_of(t.src);
        local.dst = torus_.col_of(t.dst);
        RingShare& share = shares[{true, torus_.row_of(t.src)}];
        share.transfers.push_back(local);
        share.source.push_back(t_index);
      } else if (torus_.col_of(t.src) == torus_.col_of(t.dst)) {
        local.src = torus_.row_of(t.src);
        local.dst = torus_.row_of(t.dst);
        RingShare& share = shares[{false, torus_.col_of(t.src)}];
        share.transfers.push_back(local);
        share.source.push_back(t_index);
      } else {
        throw InfeasibleSchedule(
            "TorusNetwork: transfer " + std::to_string(t.src) + "->" +
            std::to_string(t.dst) + " crosses both torus dimensions");
      }
    }

    // Per-ring RWA. The rings of a step are independent problems, so the
    // first-fit path batch-solves them (parallel when rwa_threads resolves
    // past 1) and the fold below consumes the results in the shares map's
    // deterministic key order; random-fit keeps the sequential Rng walk.
    std::vector<RoundsResult> ring_rounds;
    if (config_.rwa_policy == RwaPolicy::kFirstFit) {
      std::vector<RwaStep> problems;
      problems.reserve(shares.size());
      for (const auto& [key, share] : shares) {
        problems.push_back(RwaStep{key.first ? &row_ring_ : &col_ring_,
                                   share.transfers});
      }
      ring_rounds =
          assign_rounds_batch(problems, options, config_.rwa_threads);
    } else {
      ring_rounds.reserve(shares.size());
      for (const auto& [key, share] : shares) {
        const topo::Ring& ring = key.first ? row_ring_ : col_ring_;
        ring_rounds.push_back(
            assign_rounds(ring, share.transfers, options, rng));
      }
    }

    StepCost cost;
    cost.start = Seconds(now);
    std::uint32_t max_rounds = 0;
    std::uint32_t max_paid_rounds = 0;
    double slowest = 0.0;
    double slowest_serial = 0.0;  // every-round pricing, for overlap_hidden
    priced.lanes.clear();
    routing.clear();
    std::size_t share_index = 0;
    for (const auto& [key, share] : shares) {
      const RoundsResult& rounds = ring_rounds[share_index++];
      net::PricedLane* lane = nullptr;
      if (recorder.active()) {
        lane = &priced.lanes.emplace_back();
        lane->name = (key.first ? "row" : "col") + std::to_string(key.second);
      }
      double ring_time = 0.0;
      double ring_time_serial = 0.0;
      double window = step_window;  // per-ring overlap window (kOverlapped)
      std::uint32_t paid_rounds = 0;
      for (std::size_t r = 0; r < rounds.rounds.size(); ++r) {
        std::size_t max_elements = 0;
        for (const std::size_t idx : rounds.rounds[r]) {
          max_elements =
              std::max(max_elements, share.transfers[idx].count);
        }
        const double serialization = static_cast<double>(max_elements) *
                                     config_.bytes_per_element /
                                     config_.bytes_per_second();
        const double busy = config_.oeo_delay.count() + serialization;
        const double full = config_.mrr_reconfig_delay.count();
        const double reconfig =
            overlapped ? std::max(0.0, full - window) : full;
        const double round_time = reconfig + busy;
        if (reconfig > 0.0) ++paid_rounds;
        window = busy;
        if (lane != nullptr) {
          net::RoundRouting& routed = routing.emplace_back();
          for (std::size_t j = 0; j < rounds.paths[r].size(); ++j) {
            const std::size_t local = rounds.rounds[r][j];
            routed.transfers.push_back(net::RoundTransfer{
                static_cast<std::uint32_t>(share.source[local]),
                channel_of(rounds.paths[r][j]),
                Seconds(static_cast<double>(share.transfers[local].count) *
                        config_.bytes_per_element /
                        config_.bytes_per_second())});
          }
          routed.aggregate_channels();
          // The torus control plane retunes every round (it prices
          // kOnRetune like kEveryRound), so every round reports retune.
          obs::RoundTrace trace;
          trace.start = cost.start + Seconds(ring_time);
          trace.reconfig = Seconds(reconfig);
          trace.full_reconfig = config_.mrr_reconfig_delay;
          trace.conversion = config_.oeo_delay;
          trace.serialization = Seconds(serialization);
          trace.duration = Seconds(round_time);
          lane->rounds.push_back(net::PricedRound{std::move(trace), &routed});
        }
        ring_time += round_time;
        ring_time_serial += full + busy;
        cost.max_transfer_elements =
            std::max(cost.max_transfer_elements, max_elements);
      }
      for (const auto& round : rounds.paths) {
        for (const Lightpath& p : round) {
          result.longest_lightpath_hops =
              std::max(result.longest_lightpath_hops, p.hops);
        }
      }
      cost.wavelengths_used =
          std::max(cost.wavelengths_used, rounds.wavelengths_used);
      max_rounds = std::max(
          max_rounds, static_cast<std::uint32_t>(rounds.rounds.size()));
      max_paid_rounds = std::max(max_paid_rounds, paid_rounds);
      slowest = std::max(slowest, ring_time);
      slowest_serial = std::max(slowest_serial, ring_time_serial);
    }

    cost.label = step.label;
    cost.rounds = max_rounds;
    cost.duration = Seconds(slowest);
    priced.index = static_cast<std::uint32_t>(step_index);
    priced.start = cost.start;
    priced.duration = cost.duration;
    recorder.record(step, priced);
    result.total_rounds += max_rounds;
    // Critical-path reconfiguration charges: under kOverlapped only rounds
    // whose residual survived the overlap window count, and the hidden
    // time is the step's serial-vs-overlapped delta on the slowest ring.
    result.reconfigurations += overlapped ? max_paid_rounds : max_rounds;
    result.overlap_hidden += Seconds(slowest_serial - slowest);
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.step_costs.push_back(cost);

    probe.count("optical.steps");
    probe.count("optical.rounds", max_rounds);
    probe.count("optical.reconfig_charges",
                overlapped ? max_paid_rounds : max_rounds);
    if (max_rounds > 1) probe.count("optical.multi_round_steps");
    probe.count_max("optical.max_wavelengths_used", cost.wavelengths_used);
    if (probe.trace != nullptr) {
      obs::TraceSpan span;
      span.name = net::step_label(step, step_index);
      span.category = "torus-step";
      span.start = cost.start;
      span.duration = cost.duration;
      span.args = {{"rounds", std::to_string(cost.rounds)},
                   {"wavelengths", std::to_string(cost.wavelengths_used)},
                   {"rings", std::to_string(shares.size())}};
      probe.span(span);
      probe.counter_sample("wavelengths in use", cost.start,
                           static_cast<double>(cost.wavelengths_used));
    }
    now += slowest;
    step_window = slowest;
    ++step_index;
  }
  result.total_time = Seconds(now);
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", result.total_time, 0.0);
  }
  return result;
}

}  // namespace wrht::optics
