// Polymorphic execution-backend interface.
//
// Every engine that can price a coll::Schedule — the optical ring, the
// optical torus, the electrical flow-level fat tree, the packet-level fat
// tree, and the schedule-only step counter — implements Backend. The
// concrete engine classes (optics::RingNetwork & co.) keep their full
// native APIs; a Backend adapter wraps one engine instance and exposes the
// one seam everything above the engines needs:
//
//     Schedule IR  ->  Backend::execute()  ->  RunReport
//
// Sweeps (exp::SweepRunner), the differential oracle (verify::) and the
// conformance suite are written once against this interface, so adding a
// backend means implementing one class and registering one factory.
//
// Thread-safety: a Backend instance is NOT safe for concurrent execute()
// calls (pattern caches are per-instance); create one instance per worker
// (exp::SweepRunner does).
#pragma once

#include <compare>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/net/pattern_key.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/transfer_log.hpp"

namespace wrht::net {

/// What a backend can and cannot do; the conformance suite and sweep
/// engine branch on these instead of on backend names.
struct BackendCapabilities {
  /// Honours coll::Transfer::direction routing hints (optical rings).
  bool supports_direction_hints = false;
  /// Performs routing-and-wavelength assignment and can reject schedules
  /// that exhaust the wavelength budget.
  bool validates_rwa = false;
  /// Reports per-step wavelength usage in its StepReports.
  bool reports_wavelengths = false;
  /// Accepts only transfers that stay within one torus row or column.
  bool dimension_local_transfers_only = false;
  /// Produces real durations (false for the schedule-only step counter).
  bool prices_time = true;
  /// Can fill RunReport::{breakdown, utilization, resources_observed} when
  /// asked (BackendConfig::collect_utilization or a caller-supplied
  /// obs::Probe::occupancy sampler).
  bool reports_utilization = false;
  /// Honours ReconfigPolicy::kOverlapped — hides reconfiguration delay
  /// behind prior transmissions instead of silently falling back to serial
  /// pricing. Backends without a reconfiguration notion leave this false
  /// and price all policies identically.
  bool supports_reconfig_overlap = false;
};

class Backend {
 public:
  virtual ~Backend();

  /// Stable registry name, e.g. "optical-ring" (also stamped into
  /// RunReport::backend).
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line human description for listings and --help output.
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  /// Prices `schedule` and returns the backend-neutral report. Throws
  /// InfeasibleSchedule when the schedule cannot be carried.
  /// Implementations re-expose the unobserved overload below with
  /// `using net::Backend::execute;`.
  [[nodiscard]] virtual RunReport execute(const coll::Schedule& schedule,
                                          const obs::Probe& probe) const = 0;

  /// Unobserved convenience overload.
  [[nodiscard]] RunReport execute(const coll::Schedule& schedule) const {
    return execute(schedule, obs::Probe{});
  }

  /// Prices `schedule` as if it began at absolute time `start`: step starts
  /// in the report are >= start while total_time stays the run's duration.
  /// Every engine here is time-invariant, so the default implementation —
  /// execute() then shift the step timeline — is exact; engines with a
  /// native clock offset (the optical ring) override it to run shifted.
  /// The service layer (wrht::svc) uses this to place each admitted job's
  /// timeline at its grant time on the shared fabric clock.
  [[nodiscard]] virtual RunReport execute_at(const coll::Schedule& schedule,
                                             const obs::Probe& probe,
                                             Seconds start) const;
};

/// Emits the backend-neutral "net.*" counters every adapter shares:
/// net.executions, net.steps and net.traffic_elements, from the scan of
/// the run's schedule. Adapters call it once per run, after the scan has
/// validated the schedule, so a rejected schedule counts nothing. Gives
/// the conformance suite one uniform traffic-accounting surface per
/// backend.
void count_schedule(const obs::Probe& probe, const ScheduleScan& scan);

/// Shared adapter plumbing for utilization collection. Construct with the
/// caller's probe and the adapter's collect_utilization switch; run the
/// engine with probe() — it carries a backend-owned occupancy sampler when
/// collection is on and the caller did not bring their own — then call
/// finish() to fold the samples into the report (breakdown, utilization,
/// resources_observed, per-step breakdowns). When neither the switch nor a
/// caller sampler is present this is all pass-through and costs nothing.
class ScopedUtilization {
 public:
  ScopedUtilization(const obs::Probe& probe, bool collect);

  [[nodiscard]] const obs::Probe& probe() const { return probe_; }
  /// Attaches the analysis to `report` if sampling was active.
  void finish(RunReport& report) const;

 private:
  obs::OccupancySampler sampler_;
  obs::Probe probe_;
};

/// The step's own label, or "step <index>" when the schedule left it empty.
[[nodiscard]] std::string step_label(const coll::Step& step, std::size_t index);

/// One WDM channel of a ring: the wavelength on one fiber of one direction.
struct Channel {
  std::uint8_t direction = 0;  ///< 0 = clockwise, 1 = counter-clockwise
  std::uint32_t fiber = 0;
  std::uint32_t wavelength = 0;

  friend auto operator<=>(const Channel&, const Channel&) = default;
};

/// Occupancy resource name of `channel`: "cw/w3", "cw/f1/w3" when a
/// direction has several fibers, and "row3/cw/w3" under lane "row3".
[[nodiscard]] std::string channel_name(std::string_view lane,
                                       const Channel& channel,
                                       std::uint32_t fibers_per_direction);

/// One transfer of a priced round: its index in the step, the channel its
/// lightpath takes (none on the electrical fabric) and how long it runs
/// from the round's payload start.
struct RoundTransfer {
  std::uint32_t index = 0;
  Channel channel{};
  Seconds duration{0.0};
};

/// One channel's use within a round, over the lightpaths that share it on
/// disjoint ring segments.
struct ChannelUse {
  Channel channel{};
  Seconds serialization{0.0};  ///< the slowest sharer's payload time
  std::uint32_t concurrency = 0;
};

/// A round's transfers and, for lightpaths, the channel uses they add up to.
struct RoundRouting {
  std::vector<RoundTransfer> transfers;
  /// Ordered by channel; empty for unrouted (electrical) rounds.
  std::vector<ChannelUse> channels;

  /// Fills `channels` from `transfers`.
  void aggregate_channels();
};

/// One round as its engine priced it. `trace` carries start, the charged
/// components, duration and retune; the recorder fills step, lane and
/// round. `routing` is required: an electrical round lists every transfer
/// of its step, unrouted.
struct PricedRound {
  obs::RoundTrace trace;
  const RoundRouting* routing = nullptr;
};

struct PricedLane {
  std::string name;  ///< "ring", "row3", "fabric"
  std::vector<PricedRound> rounds;
};

/// One priced step: every lane's rounds, in the order the engine ran them.
struct PricedStep {
  std::uint32_t index = 0;
  Seconds start{0.0};
  Seconds duration{0.0};
  std::vector<PricedLane> lanes;
};

/// How a recorder prices and names an optical engine's lightpaths.
struct Lightpaths {
  /// A lightpath's transfer log entry runs for its own transfer's
  /// elements x bytes_per_element / bytes_per_second. Its RoundTransfer
  /// duration may come from another step: a cached pattern is shared by
  /// steps whose chunk sizes differ by an element, and only sizes the
  /// channel's use.
  std::uint32_t bytes_per_element = 0;
  double bytes_per_second = 0.0;
  std::uint32_t fibers_per_direction = 1;
  /// Each lane owns its channels (the torus's row and column rings): the
  /// lane prefixes their names, and a lane that finishes early holds them
  /// in straggler wait until the step ends. Otherwise the engine's one
  /// lane is the whole ring.
  bool lane_channels = false;
};

/// The one writer of an engine run's transfer log and optical channel
/// occupancy. Engines describe each priced step once and record() writes
/// it: a StepTrace, every round and transfer to probe.transfers, and, for
/// an optical engine, each channel's reconfiguration, O/E/O conversion,
/// transmission and straggler wait to probe.occupancy. Electrical link
/// occupancy stays in the engines, because a transfer does not carry its
/// links.
class RoundRecorder {
 public:
  /// Stamps `context` on the probe's transfer log and sizes it for
  /// `schedule`, the run to be recorded. Optical engines pass their
  /// `lightpaths`; the electrical fabric passes none, as its transfers
  /// carry their own durations and it has no channels. Throws
  /// InvalidArgument if the probe's transfer log or occupancy sampler
  /// already holds a run: clear() makes a sink reusable.
  RoundRecorder(const obs::Probe& probe, const coll::Schedule& schedule,
                obs::TransferLog::Context context,
                std::optional<Lightpaths> lightpaths = std::nullopt);

  /// Whether record() writes anything; engines describe steps only then.
  [[nodiscard]] bool active() const {
    return log_ != nullptr || channels_ != nullptr;
  }

  /// Records `priced`, the description of `step`; empty steps record
  /// nothing.
  void record(const coll::Step& step, const PricedStep& priced) const;

 private:
  void record_channels(const PricedStep& priced) const;

  obs::TransferLog* log_;
  /// probe.occupancy, for optical engines only.
  obs::OccupancySampler* channels_;
  std::optional<Lightpaths> lightpaths_;
};

/// Assembles the uniform per-step reports used by barrier-style backends
/// (one duration per step, labels taken from the schedule when available):
/// cumulative starts, "step <i>" fallback labels, rounds left at 1.
[[nodiscard]] std::vector<StepReport> uniform_step_reports(
    const std::vector<Seconds>& step_times);

}  // namespace wrht::net
