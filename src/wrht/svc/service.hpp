// Shared-fabric all-reduce service: the discrete-event scheduler that
// multiplexes many training jobs onto one optical fabric.
//
// Where everything below this layer prices ONE all-reduce that owns the
// whole fabric, FabricService runs an open workload against a long-lived
// sim::Simulator clock: jobs arrive (schedule_at), wait in an admission
// queue under a pluggable policy, get a contiguous wavelength slice from
// the first-fit allocator as a net::ResourceLease, run for the time the
// wrht::plan closed forms predict at the granted width, then release the
// slice. The per-tenant report carries the SLO currency — p50/p99 job
// completion time, queue-wait vs service-time — and a bottleneck verdict.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "wrht/common/units.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/sim/simulator.hpp"
#include "wrht/svc/job.hpp"
#include "wrht/svc/policy.hpp"

namespace wrht::obs {
class ChromeTraceSink;
class EventLog;
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::svc {

/// First-fit allocator of contiguous wavelength slices over [0, width).
/// Free intervals are kept sorted and coalesced, so allocate() scans
/// O(intervals) and release() merges with both neighbours. It is the one
/// lane model of the service layer: the live run allocates on it, and the
/// trace builder, event-log replay and service blame replay recorded
/// grants on it with claim().
class WavelengthAllocator {
 public:
  explicit WavelengthAllocator(std::uint32_t fabric_width);

  [[nodiscard]] std::uint32_t fabric_width() const { return fabric_; }
  /// Lowest w_lo of a free [w_lo, w_lo + width) slice, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> allocate(std::uint32_t width);
  /// Takes the given slice [w_lo, w_lo + width), as a replay of a
  /// recorded grant does; throws when any lane of it is busy or outside
  /// the fabric.
  void claim(std::uint32_t w_lo, std::uint32_t width);
  /// Returns a slice allocated earlier; throws on double-free or overlap.
  void release(std::uint32_t w_lo, std::uint32_t width);
  /// Total free wavelengths (not necessarily contiguous).
  [[nodiscard]] std::uint32_t free_width() const;
  /// Widest free contiguous slice (0 on a fully busy fabric); a slice of
  /// width >= 1 can be allocated exactly when it is no wider. Together
  /// with free_width() this gives the fragmentation signal: a fabric with
  /// lots of free width but a small largest slice cannot admit wide jobs.
  [[nodiscard]] std::uint32_t largest_free() const;
  /// largest_free() / free_width(): 1 when the free lanes form one slice,
  /// and 1 on a full fabric by convention.
  [[nodiscard]] double fragmentation() const;

 private:
  struct Interval {
    std::uint32_t lo;
    std::uint32_t hi;  // [lo, hi)
  };
  std::uint32_t fabric_;
  std::vector<Interval> free_;  // sorted by lo, pairwise disjoint
};

/// Opt-in service telemetry, BackendConfig-style: everything defaults
/// off, and a disabled run is byte-identical to the uninstrumented
/// service — same ServiceReport, same counters, same event schedule —
/// which the conformance tests pin.
struct TelemetryConfig {
  /// MetricsRegistry instruments sampled into 4096-sample TimeSeries
  /// every 10 ms of virtual time; the cadence doubles whenever a ring's
  /// worth of ticks has fired, so any makespan stays covered.
  bool metrics = false;
  /// Structured svc-events-1 JSONL event log of every service transition.
  bool events = false;
  /// Chrome-trace export: one lane per tenant plus counter tracks for
  /// queue depth, wavelengths-in-use, and fragmentation.
  bool trace = false;
  /// Workload seed recorded in the event-log header for provenance (the
  /// replay-determinism tests key logs by it).
  std::uint64_t seed = 0;

  [[nodiscard]] bool any() const { return metrics || events || trace; }
};

struct ServiceConfig {
  std::uint32_t fabric_wavelengths = 64;
  PolicyKind policy = PolicyKind::kFifo;
  /// Cost model the per-job service time is predicted with; `wavelengths`
  /// is overridden by each job's granted width.
  plan::PlannerOptions planner{};
  /// Weighted-fair share weights; tenants absent from the map weigh 1.0.
  std::map<std::uint32_t, double> tenant_weights;
  /// Per-tenant JCT targets; tenants absent from the map have no SLO and
  /// report zero burn. Drives TenantStats SLO fields and the rolling
  /// "svc.tenant<t>.slo_burn" gauges when telemetry is on.
  std::map<std::uint32_t, Seconds> slo_targets;
  /// Optional counter registry ("svc.*" events + the simulator's
  /// "sim.events_fired"); null costs nothing.
  obs::Counters* counters = nullptr;
  TelemetryConfig telemetry;
};

/// One tenant's SLO view of a completed run.
struct TenantStats {
  std::uint32_t tenant = 0;
  std::uint64_t jobs = 0;
  Seconds p50_jct{0.0};
  Seconds p99_jct{0.0};
  Seconds mean_queue_wait{0.0};
  Seconds mean_service_time{0.0};
  /// Granted wavelength-seconds (width x service time, summed).
  double wavelength_seconds = 0.0;
  /// JCT target from ServiceConfig::slo_targets (zero when the tenant has
  /// none; the SLO fields below stay zero too).
  Seconds slo_target{0.0};
  /// Completed jobs whose JCT exceeded the target.
  std::uint64_t slo_violations = 0;
  /// Burn rate: fraction of completed jobs that missed the target, in
  /// [0, 1]. 0 = SLO fully met.
  double slo_burn = 0.0;
  /// "queue-bound" when waiting dominates service, else "service-bound":
  /// the first thing to fix for this tenant's SLO.
  [[nodiscard]] std::string bottleneck() const;
};

struct ServiceReport {
  PolicyKind policy = PolicyKind::kFifo;
  std::uint32_t fabric_wavelengths = 0;
  /// Completion order.
  std::vector<JobRecord> records;
  /// Last completion on the fabric clock (first arrival is t >= 0).
  Seconds makespan{0.0};
  /// Granted wavelength-seconds / (fabric x makespan), in [0, 1].
  double utilization = 0.0;
  Seconds p50_jct{0.0};
  Seconds p99_jct{0.0};
  Seconds mean_queue_wait{0.0};
  std::vector<TenantStats> tenants;  // sorted by tenant id

  /// Human-readable per-tenant SLO/bottleneck table (the wrht_svc CLI
  /// prints exactly this).
  [[nodiscard]] std::string to_string() const;
};

/// Builds the ServiceReport aggregates from completion-ordered records.
/// This is the exact arithmetic (same summation order) the live service
/// runs, factored out so an event-log replay that reconstructs the same
/// records reproduces the report bit-for-bit — the identity
/// bench_svc_telemetry gates on.
[[nodiscard]] ServiceReport summarize_records(
    PolicyKind policy, std::uint32_t fabric_wavelengths,
    std::vector<JobRecord> records,
    const std::map<std::uint32_t, Seconds>& slo_targets = {});

/// Per-tenant SLO attainment table: target, p99 vs target, violations,
/// burn rate. Tenants without targets print "-".
[[nodiscard]] std::string slo_report(const ServiceReport& report);
/// Prints slo_report() to stdout.
void print_slo_report(const ServiceReport& report);

class FabricService {
 public:
  explicit FabricService(ServiceConfig config);
  ~FabricService();

  /// Runs the offered jobs to completion and reports. The internal
  /// simulator is long-lived: each call reset()s it, so one service can
  /// price many workloads (the bake-off bench does).
  [[nodiscard]] ServiceReport run(const std::vector<Job>& jobs);

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  /// Fabric clock (advances across a run; reset at the start of each).
  [[nodiscard]] const sim::Simulator& simulator() const { return simulator_; }

  /// Telemetry artifacts of the most recent run(); each returns null when
  /// the corresponding TelemetryConfig flag is off. The trace is
  /// materialized from the event log on first access (the hooks record
  /// events; spans and counter tracks are derived), so run() does not pay
  /// for building the export.
  [[nodiscard]] const obs::MetricsRegistry* metrics() const;
  [[nodiscard]] const obs::EventLog* event_log() const;
  [[nodiscard]] const obs::ChromeTraceSink* trace() const;

 private:
  struct Telemetry;  // service.cpp; alive only while telemetry is enabled

  using Price = std::pair<Seconds, plan::CandidateKind>;

  void try_admit();
  /// Fastest feasible planner candidate at the job's granted width; one
  /// iteration's predicted time and the algorithm that achieves it.
  /// plan::predict is a pure function of (num_nodes, elements, width) and
  /// config_.planner, which is fixed at construction, so each job shape
  /// is priced once per service and served from `prices_` after that.
  [[nodiscard]] Price price_iteration(const Job& job);

  void telemetry_begin(const std::vector<Job>& jobs);
  void telemetry_sample();
  /// Builds the Chrome trace from the recorded events (trace() calls
  /// this lazily; const because the Telemetry pointee is run() state).
  void build_trace() const;
  void on_submit(const Job& job);
  void on_admit(const Job& job);
  void on_grant(const JobRecord& record);
  void on_complete(const JobRecord& record);

  ServiceConfig config_;
  std::unique_ptr<AdmissionPolicy> policy_;
  sim::Simulator simulator_;
  WavelengthAllocator allocator_;
  AdmissionQueue queue_;
  std::vector<JobRecord> completed_;
  std::map<std::uint32_t, double> consumed_;  // tenant -> wavelength-seconds
  /// (num_nodes, elements, width) -> price_iteration(); kept across runs.
  std::map<std::tuple<std::uint32_t, std::size_t, std::uint32_t>, Price>
      prices_;
  std::unique_ptr<Telemetry> telemetry_;
};

}  // namespace wrht::svc
