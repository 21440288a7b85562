// Optical ring interconnect simulator (the paper's "in-house optical
// interconnect system simulator").
//
// Executes a coll::Schedule step by step on a WDM double ring:
//   * every step's transfers are routed and wavelength-assigned (RWA) on
//     one fiber per direction;
//   * a step that needs more wavelengths than the fiber carries is split
//     into sequential conflict-free rounds, or rejected when splitting is
//     off;
//   * each round costs the MRR reconfiguration delay (as the policy
//     charges it) + O/E/O conversion + serialization of its largest
//     transfer, priced on one net::RoundClock per run (circuit switching:
//     all lightpaths of a round progress concurrently at full lane rate).
// Steps are driven through the discrete-event kernel; identical step
// patterns (e.g. the 2(N-1) structurally equal Ring All-reduce steps) hit a
// pattern cache so large runs stay fast.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/common/rng.hpp"
#include "wrht/common/units.hpp"
#include "wrht/net/backend.hpp"
#include "wrht/net/rate_convention.hpp"
#include "wrht/net/reconfig_policy.hpp"
#include "wrht/net/resource_lease.hpp"
#include "wrht/net/round_clock.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/node.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::optics {

struct OpticalConfig {
  std::uint32_t wavelengths = 64;       ///< per fiber (Table 2)
  BitsPerSecond wavelength_rate{40e9};  ///< nominal line rate per lambda
  Seconds mrr_reconfig_delay{25e-6};    ///< per communication step
  Seconds oeo_delay{497e-15};           ///< O/E/O conversion per packet
  std::uint32_t bytes_per_element = 4;  ///< float32 gradients

  /// The Eq. (6) rate convention (see net/rate_convention.hpp).
  net::RateConvention convention = net::RateConvention::kPaperConvention;

  RwaPolicy rwa_policy = RwaPolicy::kFirstFit;
  /// Split wavelength-starved steps into sequential rounds instead of
  /// failing; each extra round pays the reconfiguration delay again. Off,
  /// a step whose RWA takes a second round throws InfeasibleSchedule.
  bool allow_multi_round_steps = true;

  /// Wavelength slice this job may touch (multi-tenant fabrics; see
  /// net/resource_lease.hpp). The default full lease is the historical
  /// exclusive-fabric behaviour, byte-identical to pre-lease runs. RWA is
  /// constrained to [lease.w_lo, lease.w_hi) on both fibers; a leased run
  /// prices exactly like a full run on a lease-width fiber.
  net::ResourceLease lease{};

  /// Workers for the batch RWA pre-pass over a schedule's distinct step
  /// patterns (0 = WRHT_RWA_THREADS / hardware concurrency; see
  /// optics::resolve_rwa_threads). First-fit only — random-fit always runs
  /// sequentially — and byte-identical results at any worker count.
  unsigned rwa_threads = 0;

  /// Per-node MRR hardware; every round's lightpaths are checked against
  /// the transmit/receive MRR capacity per direction.
  NodeHardware node_hardware{};
  bool validate_node_capacity = true;

  /// How the MRR reconfiguration delay is charged (see
  /// net/reconfig_policy.hpp):
  ///   kEveryRound - every round pays it (the paper's Eq. 6 model);
  ///   kOnRetune   - only rounds whose tuning differs from the previous
  ///                 round's pay it (static circuits stay up for free —
  ///                 quantified by bench_ablation_reconfig);
  ///   kOverlapped - round k+1's retune proceeds during round k's
  ///                 transmission; only the residual delay is charged
  ///                 (bench_ablation_overlap).
  net::ReconfigPolicy reconfig_policy = net::ReconfigPolicy::kEveryRound;

  /// Throws InvalidArgument unless a run can be priced: at least one
  /// wavelength, a positive line rate, at least one byte per element, no
  /// negative MRR reconfiguration or O/E/O delay and a lease inside the
  /// wavelength budget. Every optical engine checks its config here.
  void validate() const;

  /// Effective serialization rate in bytes per second.
  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(wavelength_rate.count(),
                                           convention);
  }

  /// Serialization time of a transfer of `elements` elements.
  [[nodiscard]] Seconds serialization_time(std::size_t elements) const {
    return net::serialization_time(elements, bytes_per_element,
                                   bytes_per_second());
  }

  // Fluent builders so call sites can assemble a config in one expression
  // (`OpticalConfig{}.with_wavelengths(8).with_lease(...)`).
  // Aggregate initialization keeps working — these are plain members.
  OpticalConfig& with_wavelengths(std::uint32_t v) {
    wavelengths = v;
    return *this;
  }
  OpticalConfig& with_wavelength_rate(BitsPerSecond v) {
    wavelength_rate = v;
    return *this;
  }
  OpticalConfig& with_mrr_reconfig_delay(Seconds v) {
    mrr_reconfig_delay = v;
    return *this;
  }
  OpticalConfig& with_oeo_delay(Seconds v) {
    oeo_delay = v;
    return *this;
  }
  OpticalConfig& with_convention(net::RateConvention v) {
    convention = v;
    return *this;
  }
  OpticalConfig& with_lease(net::ResourceLease v) {
    lease = v;
    return *this;
  }

  /// RWA options for this config: the scan window is the leased slice.
  [[nodiscard]] RwaOptions rwa_options() const {
    RwaOptions options;
    options.wavelengths = lease.clamp_hi(wavelengths);
    options.policy = rwa_policy;
    options.wavelength_lo = lease.full() ? 0 : lease.w_lo;
    return options;
  }
  OpticalConfig& with_validate_node_capacity(bool v) {
    validate_node_capacity = v;
    return *this;
  }
};

/// The WDM channel `path` occupies.
[[nodiscard]] inline net::Channel channel_of(const Lightpath& path) {
  return net::Channel{
      static_cast<std::uint8_t>(
          path.direction == topo::Direction::kClockwise ? 0 : 1),
      path.wavelength};
}

struct StepCost {
  std::string label;   ///< the schedule step's label
  Seconds start{0.0};  ///< simulation time at which the step began
  Seconds duration{0.0};
  std::uint32_t rounds = 0;
  std::uint32_t wavelengths_used = 0;
  std::size_t max_transfer_elements = 0;
};

struct OpticalRunResult {
  Seconds total_time{0.0};
  std::size_t steps = 0;
  std::uint64_t total_rounds = 0;
  std::uint32_t max_wavelengths_used = 0;
  std::uint32_t longest_lightpath_hops = 0;
  std::uint64_t events_fired = 0;
  /// Rounds that paid the reconfiguration delay (== total_rounds under
  /// kEveryRound accounting).
  std::uint64_t reconfigurations = 0;
  /// Micro-rings retuned across the whole run (kOnRetune accounting only;
  /// 0 otherwise).
  std::uint64_t retuned_mrrs = 0;
  /// Reconfiguration time hidden behind prior transmissions (kOverlapped
  /// accounting only; 0 otherwise). Serial time == total_time +
  /// overlap_hidden whenever every round retunes.
  Seconds overlap_hidden{0.0};
  std::vector<StepCost> step_costs;

  /// Backend-neutral view (RunReport) of this run.
  [[nodiscard]] RunReport to_report() const;
};

class RingBackend;

class RingNetwork {
 public:
  RingNetwork(std::uint32_t num_nodes, OpticalConfig config);

  [[nodiscard]] const topo::Ring& ring() const { return ring_; }
  [[nodiscard]] const OpticalConfig& config() const { return config_; }

  /// Simulates the schedule; throws InfeasibleSchedule when a step needs
  /// a second round and multi-round splitting is disabled. `rng` is
  /// required only for random-fit RWA.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         Rng* rng = nullptr) const;

  /// Observed variant: emits one trace span per step with child spans per
  /// RWA round, and accumulates "optical.*" counters. An empty probe makes
  /// this identical to the unobserved overload.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         const obs::Probe& probe,
                                         Rng* rng = nullptr) const;

 private:
  /// What a priced pattern keeps besides its price.
  enum class Detail : std::uint8_t {
    /// Unobserved and counters-only runs: the price alone, read from the
    /// RWA's per-transfer placements.
    kLean,
    /// + each round's routing in hop order, from optics::hop_ordered (trace,
    /// occupancy, transfer log).
    kRouted,
    /// + each round's tuning, for the transfer log's retune walk.
    kTuned,
  };

  struct PatternCost {
    /// Rounds, wavelengths and largest transfer, read in one pass over the
    /// placements; execute() prices the duration on the run's
    /// net::RoundClock.
    StepCost cost;
    std::uint32_t longest_hops = 0;
    /// Per-round serialization.
    std::vector<Seconds> round_serialization;
    /// Per-round tuning, built from the round's lightpaths in input order
    /// (a TuningState is a set) when node capacity is checked, under
    /// kOnRetune, and at kTuned.
    std::vector<TuningState> round_tunings;
    /// Per-round routed transfers and channel uses (kRouted and up).
    std::vector<net::RoundRouting> routing;
    Detail detail = Detail::kLean;
  };

  [[nodiscard]] PatternCost evaluate_step(const coll::Step& step, Rng* rng,
                                          Detail detail) const;

  /// Describes one step's RWA rounds as a PatternCost; shared by the
  /// sequential path and the parallel pre-pass. With multi-round
  /// splitting off, throws InfeasibleSchedule for more than one round.
  [[nodiscard]] PatternCost describe_rounds(const coll::Step& step,
                                            const RoundsResult& rounds,
                                            Detail detail) const;

  /// First-fit only: batch-solves the schedule's distinct uncached step
  /// patterns with assign_rounds_batch and fills pattern_cache_, so the
  /// DES loop below runs entirely on cache hits. `signatures` are the
  /// steps' keys from scan(). No-op when the resolved worker count is 1
  /// (the sequential path already does the same work lazily) or under
  /// random-fit.
  void warm_pattern_cache(const coll::Schedule& schedule,
                          const std::vector<std::uint64_t>& signatures,
                          Detail detail) const;

  /// The one read of `schedule` before a run: checks that it fits the ring
  /// and is valid, sums its traffic and, under first-fit (the only policy
  /// whose patterns are cached), keys every step with its direction hints.
  [[nodiscard]] net::ScheduleScan scan(const coll::Schedule& schedule) const;

  /// The observed execute() of a schedule `scan` = scan(schedule) has
  /// read. RingBackend scans first and counts the run once this returns.
  [[nodiscard]] OpticalRunResult execute_scanned(
      const coll::Schedule& schedule, const net::ScheduleScan& scan,
      const obs::Probe& probe, Rng* rng) const;
  friend class RingBackend;

  topo::Ring ring_;
  OpticalConfig config_;
  /// An entry priced with less detail than a run needs is re-priced on hit:
  /// first-fit RWA is deterministic, so the richer entry prices identically.
  mutable std::unordered_map<std::uint64_t, PatternCost> pattern_cache_;
};

}  // namespace wrht::optics
