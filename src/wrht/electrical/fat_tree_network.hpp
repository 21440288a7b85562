// Electrical fat-tree interconnect simulator (the paper's SimGrid baseline).
//
// Executes a coll::Schedule with barrier semantics: all transfers of a step
// become simultaneous flows routed host-edge(-core-edge)-host; the step
// lasts until the slowest flow drains under max-min fair sharing, plus the
// per-router store-and-forward delay (Table 2: 40 Gb/s links, 25 us router
// delay, 32-port routers, shortest-path routing). Structurally identical
// steps hit a pattern cache, mirroring the optical simulator.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/units.hpp"
#include "wrht/electrical/flow_sim.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/topo/fat_tree.hpp"

namespace wrht::elec {

struct ElectricalConfig {
  BitsPerSecond link_rate{40e9};   ///< per directed link
  Seconds router_delay{25e-6};     ///< per traversed router
  Bytes packet_size{72};
  std::uint32_t bytes_per_element = 4;
  std::uint32_t router_ports = 32;

  /// The same net::RateConvention knob as optics::OpticalConfig — the
  /// paper's numerics drain d bytes against B = 40e9; keep both simulators
  /// on the same convention for a fair optical/electrical comparison.
  net::RateConvention convention = net::RateConvention::kPaperConvention;

  /// Multi-tenant link share (see net/resource_lease.hpp): the fabric has
  /// no wavelength notion, so a lease of k wavelengths out of a
  /// `lease_fabric_width`-wide fabric grants this job k/width of every
  /// link's bandwidth — the fair share a wavelength-proportional slicer
  /// converges to. The default full lease (or width 0) leaves every link
  /// at full rate, byte-identical to pre-lease runs.
  net::ResourceLease lease{};
  std::uint32_t lease_fabric_width = 0;

  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(link_rate.count(), convention) *
           lease.share(lease_fabric_width);
  }

  // Fluent builders mirroring optics::OpticalConfig; aggregate
  // initialization keeps working.
  ElectricalConfig& with_link_rate(BitsPerSecond v) {
    link_rate = v;
    return *this;
  }
  ElectricalConfig& with_router_delay(Seconds v) {
    router_delay = v;
    return *this;
  }
  ElectricalConfig& with_router_ports(std::uint32_t v) {
    router_ports = v;
    return *this;
  }
  ElectricalConfig& with_convention(net::RateConvention v) {
    convention = v;
    return *this;
  }
  ElectricalConfig& with_lease(net::ResourceLease v,
                               std::uint32_t fabric_width) {
    lease = v;
    lease_fabric_width = fabric_width;
    return *this;
  }
};

/// One run's link occupancy, shared by both fat-tree engines: each link's
/// sampler handle is registered on its first record, so the sampler lists
/// links in the order the run first touches them.
class LinkOccupancy {
 public:
  /// Inactive (records nothing) when `sampler` is null.
  LinkOccupancy(obs::OccupancySampler* sampler, std::size_t num_links);

  [[nodiscard]] bool active() const { return sampler_ != nullptr; }
  void record(LinkId link, std::uint32_t step, Seconds start,
              Seconds duration, obs::OccCategory category,
              std::uint32_t concurrency = 1);

 private:
  obs::OccupancySampler* sampler_;
  std::vector<obs::OccupancySampler::ResourceRef> refs_;
};

struct ElectricalRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_flows = 0;
  /// Largest number of concurrent flows sharing one link in any step.
  std::uint32_t max_link_load = 0;
  std::vector<Seconds> step_times;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class FlowBackend;

class FatTreeNetwork {
 public:
  FatTreeNetwork(std::uint32_t num_hosts, ElectricalConfig config);

  [[nodiscard]] const topo::FatTree& topology() const { return tree_; }
  [[nodiscard]] const ElectricalConfig& config() const { return config_; }

  [[nodiscard]] ElectricalRunResult execute(
      const coll::Schedule& schedule) const;

  /// Observed variant: one trace span per step plus "electrical.*"
  /// counters (flows, link load, fair-share bottlenecks, recomputations).
  [[nodiscard]] ElectricalRunResult execute(const coll::Schedule& schedule,
                                            const obs::Probe& probe) const;

 private:
  /// One directed link's account within a step: it transmits until its
  /// slowest flow drains, then the flow chain is in router processing
  /// until the last completion it feeds.
  struct LinkOcc {
    LinkId link = 0;
    double busy_s = 0.0;       ///< max drain time over the link's flows
    double chain_end_s = 0.0;  ///< max completion (drain + router latency)
    std::uint32_t load = 0;    ///< flows sharing the link
  };

  struct StepTiming {
    double seconds = 0.0;
    std::uint32_t max_link_load = 0;
    std::uint32_t bottleneck_links = 0;
    std::uint64_t rate_recomputations = 0;
    /// Per-loaded-link occupancy, link-id order (pattern-cached with the
    /// rest of the timing; only links with traffic appear).
    std::vector<LinkOcc> link_occ;
    /// The step's one fabric round: every flow with its completion time,
    /// and the router processing on the bounding (last-finishing) flow;
    /// the rest of the step is transmission.
    net::RoundRouting flows;
    double processing = 0.0;
  };
  [[nodiscard]] StepTiming evaluate_step(const coll::Step& step) const;

  /// The one read of `schedule` before a run: checks that it fits the
  /// fabric and is valid, sums its traffic and keys every step without its
  /// direction hints, which the fabric ignores: hint-variants of one
  /// (src, dst) pattern share a cache entry.
  [[nodiscard]] net::ScheduleScan scan(const coll::Schedule& schedule) const;

  /// The observed execute() of a schedule `scan` = scan(schedule) has
  /// read. FlowBackend scans first so it can count the run.
  [[nodiscard]] ElectricalRunResult execute_scanned(
      const coll::Schedule& schedule, const net::ScheduleScan& scan,
      const obs::Probe& probe) const;
  friend class FlowBackend;

  topo::FatTree tree_;
  ElectricalConfig config_;
  FlowLevelSimulator flow_sim_;
  mutable std::unordered_map<std::uint64_t, StepTiming> pattern_cache_;
};

}  // namespace wrht::elec
