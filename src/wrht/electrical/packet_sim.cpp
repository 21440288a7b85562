#include "wrht/electrical/packet_sim.hpp"

#include <algorithm>

#include "wrht/common/error.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/sim/simulator.hpp"

namespace wrht::elec {

PacketLevelNetwork::PacketLevelNetwork(std::uint32_t num_hosts,
                                       ElectricalConfig config)
    : tree_(num_hosts, config.router_ports), config_(config) {
  require(config.packet_size.count() >= 1,
          "PacketLevelNetwork: packet size must be positive");
  require(config.lease.full() || config.lease_fabric_width > 0,
          "PacketLevelNetwork: a sliced lease needs lease_fabric_width");
  config.lease.validate(config.lease_fabric_width);
}

namespace {

struct Packet {
  std::uint32_t route_index = 0;  ///< into the per-transfer route table
  std::uint32_t hop = 0;          ///< next link to traverse
  double bytes = 0.0;             ///< this payload (last may be short)
};

}  // namespace

double PacketLevelNetwork::simulate_step(const coll::Step& step,
                                         std::uint64_t& packets,
                                         std::uint64_t& events,
                                         const obs::Probe& probe,
                                         LinkOccupancy& links,
                                         double step_start,
                                         std::uint32_t step_index,
                                         net::RoundRouting* transfers) const {
  sim::Simulator simulator;
  simulator.set_counters(probe.counters);
  std::vector<double> next_free(tree_.num_links(), 0.0);
  const double rate = config_.bytes_per_second();
  const double router_delay = config_.router_delay.count();
  const double packet_bytes =
      static_cast<double>(config_.packet_size.count());
  double makespan = 0.0;

  // Packets live in a pool indexed by id and share one route per transfer,
  // so event lambdas capture {&arrive, index} — 16 bytes, inside
  // libstdc++'s std::function small buffer — instead of a shared_ptr whose
  // 24-byte capture heap-allocates every event.
  std::vector<std::vector<topo::LinkId>> routes;
  routes.reserve(step.transfers.size());
  std::vector<Packet> pool;

  // Arrival of packet `pi` at the input queue of its next link.
  std::function<void(std::size_t)> arrive = [&](std::size_t pi) {
    Packet& packet = pool[pi];
    const std::vector<topo::LinkId>& route = routes[packet.route_index];
    const topo::LinkId link = route[packet.hop];
    const double now = simulator.now().count();
    const double tx_start = std::max(now, next_free[link]);
    const double depart = tx_start + packet.bytes / rate;
    // The sampler coalesces the back-to-back per-packet slices a busy
    // link produces.
    if (links.active()) {
      links.record(link, step_index, Seconds(step_start + tx_start),
                   Seconds(depart - tx_start), obs::OccCategory::kTransmission);
    }
    next_free[link] = depart;
    ++packet.hop;
    if (packet.hop < route.size()) {
      // Entering the next router: store-and-forward processing delay.
      simulator.schedule_at(Seconds(depart + router_delay),
                            [&arrive, pi] { arrive(pi); });
    } else {
      makespan = std::max(makespan, depart);
      if (transfers != nullptr) {
        Seconds& done = transfers->transfers[packet.route_index].duration;
        done = std::max(done, Seconds(depart));
      }
    }
  };
  if (transfers != nullptr) transfers->transfers.clear();

  std::size_t estimated = 0;
  for (const auto& t : step.transfers) {
    const double bytes =
        static_cast<double>(t.count) * config_.bytes_per_element;
    if (bytes > 0.0) {
      estimated += static_cast<std::size_t>(bytes / packet_bytes) + 1;
    }
  }
  pool.reserve(estimated);
  simulator.reserve_events(estimated);

  for (const auto& t : step.transfers) {
    auto route = tree_.route(t.src, t.dst);
    const auto route_index = static_cast<std::uint32_t>(routes.size());
    routes.push_back(std::move(route.links));
    if (transfers != nullptr) {
      transfers->transfers.push_back(net::RoundTransfer{route_index, {}, {}});
    }
    double remaining =
        static_cast<double>(t.count) * config_.bytes_per_element;
    while (remaining > 0.0) {
      const std::size_t pi = pool.size();
      Packet& packet = pool.emplace_back();
      packet.route_index = route_index;
      packet.bytes = std::min(remaining, packet_bytes);
      remaining -= packet.bytes;
      ++packets;
      simulator.schedule_at(Seconds(0.0), [&arrive, pi] { arrive(pi); });
    }
  }

  {
    // Host-side phase accounting for the per-step packet DES drain.
    const prof::ScopedTimer timer("electrical.des.run");
    simulator.run();
  }
  events += simulator.events_fired();
  // Links that went quiet before the step's last packet drained are in
  // straggler wait; untouched links remain unaccounted (idle).
  if (links.active()) {
    for (topo::LinkId l = 0; l < tree_.num_links(); ++l) {
      if (next_free[l] <= 0.0) continue;
      links.record(l, step_index, Seconds(step_start + next_free[l]),
                   Seconds(makespan - next_free[l]),
                   obs::OccCategory::kStragglerWait);
    }
  }
  return makespan;
}

PacketRunResult PacketLevelNetwork::execute(
    const coll::Schedule& schedule) const {
  return execute(schedule, obs::Probe{});
}

net::ScheduleScan PacketLevelNetwork::scan(
    const coll::Schedule& schedule) const {
  require(schedule.num_nodes() <= tree_.num_hosts(),
          "PacketLevelNetwork: schedule spans more nodes than hosts");
  return net::scan_schedule(schedule, net::StepKeys::kNone);
}

PacketRunResult PacketLevelNetwork::execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const {
  (void)scan(schedule);
  return execute_scanned(schedule, probe);
}

PacketRunResult PacketLevelNetwork::execute_scanned(
    const coll::Schedule& schedule, const obs::Probe& probe) const {
  PacketRunResult result;
  result.steps = schedule.num_steps();
  result.step_times.reserve(schedule.num_steps());
  const net::RoundRecorder recorder(probe, schedule,
                                    {"electrical-packet", "none"});
  LinkOccupancy links(probe.occupancy, tree_.num_links());
  net::RoundRouting flows;  // each transfer's last-packet arrival
  double total = 0.0;
  std::size_t step_index = 0;
  for (const auto& step : schedule.steps()) {
    probe.count("packet.steps");
    const std::uint64_t packets_before = result.total_packets;
    const auto step_id = static_cast<std::uint32_t>(step_index);
    const double t =
        step.transfers.empty()
            ? 0.0
            : simulate_step(step, result.total_packets, result.events_fired,
                            probe, links, total, step_id,
                            recorder.active() ? &flows : nullptr);
    probe.count("packet.packets", result.total_packets - packets_before);
    if (recorder.active()) {
      // One single-round "fabric" lane per step: the packet model has no
      // reconfigurable optics, so the whole step is transmission.
      obs::RoundTrace round;
      round.start = Seconds(total);
      round.serialization = Seconds(t);
      round.duration = Seconds(t);
      round.retune = false;
      net::PricedStep priced{step_id, Seconds(total), Seconds(t), {}};
      priced.lanes.push_back({"fabric", {{std::move(round), &flows}}});
      recorder.record(step, priced);
    }
    if (probe.trace != nullptr && !step.transfers.empty()) {
      obs::TraceSpan span;
      span.name = net::step_label(step, step_index);
      span.category = "packet-step";
      span.start = Seconds(total);
      span.duration = Seconds(t);
      span.args = {
          {"transfers", std::to_string(step.transfers.size())},
          {"packets", std::to_string(result.total_packets - packets_before)}};
      probe.span(span);
      probe.counter_sample(
          "packets per step", Seconds(total),
          static_cast<double>(result.total_packets - packets_before));
    }
    result.step_times.emplace_back(t);
    total += t;
    ++step_index;
  }
  result.total_time = Seconds(total);
  if (probe.trace != nullptr && result.total_packets > 0) {
    probe.counter_sample("packets per step", result.total_time, 0.0);
  }
  return result;
}

RunReport PacketRunResult::to_report() const {
  RunReport report;
  report.backend = "electrical-packet";
  report.total_time = total_time;
  report.steps = steps;
  report.rounds = step_times.size();
  report.events_fired = events_fired;
  report.step_reports = net::uniform_step_reports(step_times);
  return report;
}

}  // namespace wrht::elec
