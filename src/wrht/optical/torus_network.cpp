#include "wrht/optical/torus_network.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/optical/rwa.hpp"

namespace wrht::optics {

TorusNetwork::TorusNetwork(const topo::Torus& torus, OpticalConfig config)
    : torus_(torus),
      config_(config),
      row_ring_(torus.cols()),
      col_ring_(torus.rows()) {
  config_.validate();
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

TorusNetwork::Shares TorusNetwork::partition(const coll::Step& step) const {
  const std::uint32_t cols = torus_.cols();
  Shares shares;
  shares.begin.assign(std::size_t{cols} + torus_.rows() + 1, 0);
  std::vector<std::uint32_t> slot_of(step.transfers.size());
  for (std::size_t t_index = 0; t_index < step.transfers.size(); ++t_index) {
    const coll::Transfer& t = step.transfers[t_index];
    if (torus_.row_of(t.src) == torus_.row_of(t.dst)) {
      slot_of[t_index] = cols + torus_.row_of(t.src);
    } else if (torus_.col_of(t.src) == torus_.col_of(t.dst)) {
      slot_of[t_index] = torus_.col_of(t.src);
    } else {
      throw InfeasibleSchedule(
          "TorusNetwork: transfer " + std::to_string(t.src) + "->" +
          std::to_string(t.dst) + " crosses both torus dimensions");
    }
    ++shares.begin[slot_of[t_index] + 1];
  }
  std::partial_sum(shares.begin.begin(), shares.begin.end(),
                   shares.begin.begin());

  // Remap node ids to ring-local positions, each slot's transfers in step
  // order. Hints are flat-ring specific, so they are dropped.
  shares.transfers.resize(step.transfers.size());
  shares.source.resize(step.transfers.size());
  std::vector<std::uint32_t> fill(shares.begin.begin(),
                                  shares.begin.end() - 1);
  for (std::size_t t_index = 0; t_index < step.transfers.size(); ++t_index) {
    const coll::Transfer& t = step.transfers[t_index];
    const std::uint32_t slot = slot_of[t_index];
    coll::Transfer local = t;
    local.direction = std::nullopt;
    if (slot >= cols) {
      local.src = torus_.col_of(t.src);
      local.dst = torus_.col_of(t.dst);
    } else {
      local.src = torus_.row_of(t.src);
      local.dst = torus_.row_of(t.dst);
    }
    const std::uint32_t at = fill[slot]++;
    shares.transfers[at] = local;
    shares.source[at] = static_cast<std::uint32_t>(t_index);
  }
  for (std::uint32_t slot = 0; slot + 1 < shares.begin.size(); ++slot) {
    if (shares.begin[slot + 1] > shares.begin[slot]) {
      shares.used.push_back(slot);
    }
  }
  return shares;
}

std::string TorusNetwork::ring_name(std::uint32_t slot,
                                    const char* separator) const {
  const bool row = slot >= torus_.cols();
  return (row ? "row" : "col") + std::string(separator) +
         std::to_string(row ? slot - torus_.cols() : slot);
}

std::vector<RoundsResult> TorusNetwork::solve(const Shares& shares,
                                              std::vector<std::uint32_t>& of,
                                              Rng* rng) const {
  const RwaOptions options = config_.rwa_options();
  const auto problem = [&](std::uint32_t slot) {
    return RwaStep{slot >= torus_.cols() ? &row_ring_ : &col_ring_,
                   shares.share(slot)};
  };

  of.resize(shares.used.size());
  std::vector<RoundsResult> solved;
  if (config_.rwa_policy != RwaPolicy::kFirstFit) {
    // Random-fit draws from one Rng, ring by ring in slot order.
    for (std::size_t u = 0; u < shares.used.size(); ++u) {
      of[u] = static_cast<std::uint32_t>(u);
      const RwaStep p = problem(shares.used[u]);
      solved.push_back(assign_rounds(*p.ring, p.transfers, options, rng));
    }
    return solved;
  }

  // First-fit is a pure function of (ring, local transfer list), so each
  // distinct share is solved once. The hash only picks candidates: it is
  // the pattern keys' order-blind sum over the (src, dst) words, without
  // the ring, so a match is confirmed ring size first, then element by
  // element.
  std::vector<RwaStep> distinct;  // one problem per distinct share
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  for (std::size_t u = 0; u < shares.used.size(); ++u) {
    const RwaStep p = problem(shares.used[u]);
    std::uint64_t hash = 0;
    for (const coll::Transfer& t : p.transfers) {
      hash += net::fmix64(std::uint64_t{t.src} << 32 | t.dst);
    }
    const auto same = [&](std::uint32_t d) {
      const RwaStep& q = distinct[d];
      return q.ring->size() == p.ring->size() &&
             std::equal(q.transfers.begin(), q.transfers.end(),
                        p.transfers.begin(), p.transfers.end(),
                        [](const coll::Transfer& a, const coll::Transfer& b) {
                          return a.src == b.src && a.dst == b.dst;
                        });
    };
    const auto [lo, hi] = by_hash.equal_range(hash);
    const auto match = std::find_if(
        lo, hi, [&](const auto& entry) { return same(entry.second); });
    if (match != hi) {
      of[u] = match->second;
      continue;
    }
    of[u] = static_cast<std::uint32_t>(distinct.size());
    by_hash.emplace(hash, of[u]);
    distinct.push_back(p);
  }
  // Distinct shares are independent problems: batch-solve them (in
  // parallel when rwa_threads resolves past 1), results in slot order.
  return assign_rounds_batch(distinct, options, config_.rwa_threads);
}

OpticalRunResult TorusNetwork::execute_scanned(const coll::Schedule& schedule,
                                               const obs::Probe& probe,
                                               Rng* rng) const {
  OpticalRunResult result;
  result.steps = schedule.num_steps();
  result.step_costs.reserve(schedule.num_steps());

  const net::RoundRecorder recorder(
      probe, schedule,
      {"optical-torus", net::to_string(config_.reconfig_policy),
       config_.mrr_reconfig_delay, config_.oeo_delay},
      net::Lightpaths{config_.bytes_per_element, config_.bytes_per_second(),
                      true});
  Seconds now(0.0);
  std::size_t step_index = 0;
  Seconds previous_step(0.0);  // step 0 has nothing to overlap with
  // A recorded step's description: one lane per ring, whose rounds point
  // into `routing`.
  net::PricedStep priced;
  std::deque<net::RoundRouting> routing;
  std::vector<std::uint32_t> result_of;
  std::vector<std::size_t> largest;
  for (const auto& step : schedule.steps()) {
    const Shares shares = partition(step);
    const std::vector<RoundsResult> ring_rounds =
        solve(shares, result_of, rng);
    for (const RoundsResult& rounds : ring_rounds) {
      result.longest_lightpath_hops =
          std::max(result.longest_lightpath_hops, rounds.longest_hops);
    }

    StepCost cost;
    cost.start = now;
    std::uint32_t max_rounds = 0;
    std::uint64_t max_charges = 0;
    Seconds slowest(0.0);
    Seconds slowest_serial(0.0);  // with nothing hidden, for overlap_hidden
    priced.lanes.clear();
    routing.clear();
    for (std::size_t u = 0; u < shares.used.size(); ++u) {
      const std::uint32_t slot = shares.used[u];
      const RoundsResult& rounds = ring_rounds[result_of[u]];
      // With multi-round splitting off, a ring either fits its share in
      // one round or rejects the step, as RingNetwork does.
      if (!config_.allow_multi_round_steps && rounds.rounds > 1) {
        throw InfeasibleSchedule(
            "TorusNetwork: step '" + step.label + "' on " +
            ring_name(slot, " ") + " needs more than " +
            std::to_string(config_.lease.width(config_.wavelengths)) +
            " wavelengths (lease " + config_.lease.to_string() +
            ") and multi-round splitting is disabled");
      }
      const std::span<const coll::Transfer> share = shares.share(slot);
      const std::uint32_t* source = shares.source.data() + shares.begin[slot];
      // Each round's largest transfer of this ring's own share, in one pass
      // over the placements.
      largest.assign(rounds.rounds, 0);
      for (std::size_t i = 0; i < share.size(); ++i) {
        std::size_t& max_elements = largest[rounds.placements[i].round];
        max_elements = std::max(max_elements, share[i].count);
      }
      net::PricedLane* lane = nullptr;
      HopOrderedRounds lists;  // a recorded lane's rounds, in hop order
      if (recorder.active()) {
        lane = &priced.lanes.emplace_back();
        lane->name = ring_name(slot, "");
        lists = hop_ordered(slot >= torus_.cols() ? row_ring_ : col_ring_,
                            share, rounds);
      }
      // One clock per ring per step. The torus control plane retunes every
      // round, so kOnRetune prices like kEveryRound. Steps are barriers:
      // under kOverlapped a ring's first retune hides in the previous step,
      // and its later rounds in their own previous round.
      net::RoundClock clock(config_.reconfig_policy,
                            config_.mrr_reconfig_delay, config_.oeo_delay,
                            previous_step);
      Seconds ring_time(0.0);
      for (std::size_t r = 0; r < rounds.rounds; ++r) {
        const std::size_t max_elements = largest[r];
        const Seconds serialization =
            config_.serialization_time(max_elements);
        const net::RoundClock::Round round =
            clock.next(serialization, true);
        if (lane != nullptr) {
          net::RoundRouting& routed = routing.emplace_back();
          for (std::size_t j = 0; j < lists.rounds[r].size(); ++j) {
            const std::size_t local = lists.rounds[r][j];
            routed.transfers.push_back(net::RoundTransfer{
                source[local], channel_of(lists.paths[r][j]),
                config_.serialization_time(share[local].count)});
          }
          routed.aggregate_channels();
          obs::RoundTrace trace;
          trace.start = cost.start + ring_time;
          trace.reconfig = round.reconfig;
          trace.full_reconfig = config_.mrr_reconfig_delay;
          trace.conversion = config_.oeo_delay;
          trace.serialization = serialization;
          trace.duration = round.duration;
          lane->rounds.push_back(net::PricedRound{std::move(trace), &routed});
        }
        ring_time += round.duration;
        cost.max_transfer_elements =
            std::max(cost.max_transfer_elements, max_elements);
      }
      cost.wavelengths_used =
          std::max(cost.wavelengths_used, rounds.wavelengths_used);
      max_rounds = std::max(max_rounds, rounds.rounds);
      max_charges = std::max(max_charges, clock.charges());
      slowest = std::max(slowest, ring_time);
      slowest_serial = std::max(slowest_serial, ring_time + clock.hidden());
    }

    cost.label = step.label;
    cost.rounds = max_rounds;
    cost.duration = slowest;
    priced.index = static_cast<std::uint32_t>(step_index);
    priced.start = cost.start;
    priced.duration = cost.duration;
    recorder.record(step, priced);
    result.total_rounds += max_rounds;
    // A step's charges are its most-charged ring's; its hidden time is its
    // duration with nothing hidden minus its priced duration.
    result.reconfigurations += max_charges;
    result.overlap_hidden += slowest_serial - slowest;
    result.max_wavelengths_used =
        std::max(result.max_wavelengths_used, cost.wavelengths_used);
    result.step_costs.push_back(cost);

    probe.count("optical.steps");
    probe.count("optical.rounds", max_rounds);
    probe.count("optical.reconfig_charges", max_charges);
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
                   {"rings", std::to_string(shares.used.size())}};
      probe.span(span);
      probe.counter_sample("wavelengths in use", cost.start,
                           static_cast<double>(cost.wavelengths_used));
    }
    now += slowest;
    previous_step = slowest;
    ++step_index;
  }
  result.total_time = now;
  if (probe.trace != nullptr && result.total_rounds > 0) {
    probe.counter_sample("wavelengths in use", result.total_time, 0.0);
  }
  return result;
}

}  // namespace wrht::optics
