// Optical ring interconnect simulator (the paper's "in-house optical
// interconnect system simulator").
//
// Executes a coll::Schedule step by step on a WDM double ring:
//   * every step's transfers are routed and wavelength-assigned (RWA);
//   * a step that needs more wavelengths than the fiber carries is split
//     into sequential conflict-free rounds;
//   * each round costs the MRR reconfiguration delay + O/E/O conversion +
//     serialization of its largest transfer (circuit switching: all
//     lightpaths of a round progress concurrently at full lane rate).
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
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/optical/node.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/topo/ring.hpp"

namespace wrht::optics {

struct OpticalConfig {
  std::uint32_t wavelengths = 64;          ///< per fiber (Table 2)
  std::uint32_t fibers_per_direction = 1;  ///< wavelength-planning default
  BitsPerSecond wavelength_rate{40e9};     ///< nominal line rate per lambda
  Seconds mrr_reconfig_delay{25e-6};       ///< per communication step
  Seconds oeo_delay{497e-15};              ///< O/E/O conversion per packet
  std::uint32_t bytes_per_element = 4;     ///< float32 gradients

  /// The Eq. (6) rate convention (see net/rate_convention.hpp).
  net::RateConvention convention = net::RateConvention::kPaperConvention;

  RwaPolicy rwa_policy = RwaPolicy::kFirstFit;
  /// Split wavelength-starved steps into sequential rounds instead of
  /// failing; each extra round pays the reconfiguration delay again.
  bool allow_multi_round_steps = true;

  /// Wavelength slice this job may touch (multi-tenant fabrics; see
  /// net/resource_lease.hpp). The default full lease is the historical
  /// exclusive-fabric behaviour, byte-identical to pre-lease runs. RWA is
  /// constrained to [lease.w_lo, lease.w_hi) on every fiber; a leased run
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

  /// Effective serialization rate in bytes per second.
  [[nodiscard]] double bytes_per_second() const {
    return net::effective_bytes_per_second(wavelength_rate.count(),
                                           convention);
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
    options.fibers_per_direction = fibers_per_direction;
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
      path.fiber, path.wavelength};
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

  /// Simulates the schedule; throws InfeasibleSchedule when a transfer
  /// cannot be carried at all (and multi-round splitting is disabled or
  /// cannot help). `rng` is required only for random-fit RWA.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         Rng* rng = nullptr) const;

  /// Observed variant: emits one trace span per step with child spans per
  /// RWA round, and accumulates "optical.*" counters. An empty probe makes
  /// this identical to the unobserved overload.
  ///
  /// `start` offsets the internal clock: step starts (and trace spans) are
  /// absolute times >= start, while total_time stays the run's duration.
  /// The engine is time-invariant, so a shifted run prices identically —
  /// the offset exists so a long-lived fabric simulation (wrht::svc) can
  /// place a job's timeline at its admission time.
  [[nodiscard]] OpticalRunResult execute(const coll::Schedule& schedule,
                                         const obs::Probe& probe,
                                         Rng* rng = nullptr,
                                         Seconds start = Seconds(0.0)) const;

  /// Cost of one round carrying a largest transfer of `elements` elements:
  /// reconfiguration + O/E/O + serialization (Eq. 6 per-step term).
  [[nodiscard]] Seconds round_time(std::size_t elements) const;

  /// Serialization-only time of a round's largest transfer.
  [[nodiscard]] Seconds serialization_time(std::size_t elements) const;

  /// Closed-form Eq. (6) estimate assuming every step fits in one round:
  /// sum over steps of (a + max_payload/B). execute() returns exactly this
  /// whenever no step splits (asserted by the consistency tests).
  [[nodiscard]] Seconds single_round_estimate(
      const coll::Schedule& schedule) const;

 private:
  /// What a priced pattern keeps besides its price.
  enum class Detail : std::uint8_t {
    kLean,    ///< unobserved and counters-only runs
    kRouted,  ///< + each round's routing (trace, occupancy, transfer log)
    kTuned,   ///< + each round's tuning, for the transfer log's retune walk
  };

  struct PatternCost {
    /// Rounds, wavelengths and largest transfer; execute() prices the
    /// duration under the run's reconfiguration policy.
    StepCost cost;
    std::uint32_t longest_hops = 0;
    /// Per-round serialization and tuning, for retune-aware accounting.
    std::vector<Seconds> round_serialization;
    std::vector<TuningState> round_tunings;
    /// Per-round routed transfers and channel uses (kRouted and up).
    std::vector<net::RoundRouting> routing;
    Detail detail = Detail::kLean;
  };

  [[nodiscard]] PatternCost evaluate_step(const coll::Step& step, Rng* rng,
                                          Detail detail) const;

  /// Pure pricing arithmetic turning one step's RWA rounds into a
  /// PatternCost; shared by the sequential path and the parallel pre-pass.
  [[nodiscard]] PatternCost price_rounds(
      const coll::Step& step, std::uint32_t wavelengths_used,
      const std::vector<std::vector<Lightpath>>& round_paths,
      const std::vector<std::vector<std::size_t>>& round_members,
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
  /// read. RingBackend scans first so it can count the run.
  [[nodiscard]] OpticalRunResult execute_scanned(
      const coll::Schedule& schedule, const net::ScheduleScan& scan,
      const obs::Probe& probe, Rng* rng, Seconds start) const;
  friend class RingBackend;

  topo::Ring ring_;
  OpticalConfig config_;
  /// An entry priced with less detail than a run needs is re-priced on hit:
  /// first-fit RWA is deterministic, so the richer entry prices identically.
  mutable std::unordered_map<std::uint64_t, PatternCost> pattern_cache_;
};

}  // namespace wrht::optics
