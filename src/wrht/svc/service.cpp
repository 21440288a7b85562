#include "wrht/svc/service.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "wrht/common/error.hpp"
#include "wrht/common/stats.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::svc {

WavelengthAllocator::WavelengthAllocator(std::uint32_t fabric_width)
    : fabric_(fabric_width) {
  require(fabric_ >= 1, "WavelengthAllocator: empty fabric");
  free_.push_back(Interval{0, fabric_});
}

std::optional<std::uint32_t> WavelengthAllocator::allocate(
    std::uint32_t width) {
  require(width >= 1, "WavelengthAllocator: zero-width allocation");
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].hi - free_[i].lo < width) continue;
    const std::uint32_t lo = free_[i].lo;
    free_[i].lo += width;
    if (free_[i].lo == free_[i].hi) {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return lo;
  }
  return std::nullopt;
}

void WavelengthAllocator::claim(std::uint32_t w_lo, std::uint32_t width) {
  require(width >= 1 && w_lo <= fabric_ && width <= fabric_ - w_lo,
          "WavelengthAllocator: claim outside the fabric");
  // The only free interval that can hold the slice is the last one
  // starting at or below w_lo; split it around the slice.
  const auto next = std::upper_bound(
      free_.begin(), free_.end(), w_lo,
      [](std::uint32_t w, const Interval& iv) { return w < iv.lo; });
  require(next != free_.begin() && std::prev(next)->hi >= w_lo + width,
          "WavelengthAllocator: claim over busy lanes");
  const std::ptrdiff_t i = (next - free_.begin()) - 1;
  const Interval right{w_lo + width, free_[i].hi};
  free_[i].hi = w_lo;
  if (right.lo < right.hi) free_.insert(free_.begin() + i + 1, right);
  if (free_[i].lo == free_[i].hi) free_.erase(free_.begin() + i);
}

void WavelengthAllocator::release(std::uint32_t w_lo, std::uint32_t width) {
  require(width >= 1 && w_lo <= fabric_ && width <= fabric_ - w_lo,
          "WavelengthAllocator: release outside the fabric");
  const Interval freed{w_lo, w_lo + width};
  // Insertion point: first free interval at or past the freed slice.
  std::size_t i = 0;
  while (i < free_.size() && free_[i].lo < freed.lo) ++i;
  require((i == 0 || free_[i - 1].hi <= freed.lo) &&
              (i == free_.size() || freed.hi <= free_[i].lo),
          "WavelengthAllocator: double free or overlapping release");
  free_.insert(free_.begin() + static_cast<std::ptrdiff_t>(i), freed);
  // Coalesce with the right neighbour, then the left.
  if (i + 1 < free_.size() && free_[i].hi == free_[i + 1].lo) {
    free_[i].hi = free_[i + 1].hi;
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
  if (i > 0 && free_[i - 1].hi == free_[i].lo) {
    free_[i - 1].hi = free_[i].hi;
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::uint32_t WavelengthAllocator::free_width() const {
  std::uint32_t total = 0;
  for (const Interval& iv : free_) total += iv.hi - iv.lo;
  return total;
}

std::uint32_t WavelengthAllocator::largest_free() const {
  std::uint32_t widest = 0;
  for (const Interval& iv : free_) widest = std::max(widest, iv.hi - iv.lo);
  return widest;
}

double WavelengthAllocator::fragmentation() const {
  const std::uint32_t total = free_width();
  if (total == 0) return 1.0;
  return static_cast<double>(largest_free()) / static_cast<double>(total);
}

std::string TenantStats::bottleneck() const {
  return mean_queue_wait > mean_service_time ? "queue-bound"
                                             : "service-bound";
}

std::string ServiceReport::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "policy=%s fabric=%uλ jobs=%zu makespan=%.3fs util=%.1f%% "
                "p50_jct=%.3fs p99_jct=%.3fs mean_wait=%.3fs\n",
                svc::to_string(policy).c_str(), fabric_wavelengths,
                records.size(), makespan.count(), utilization * 100.0,
                p50_jct.count(), p99_jct.count(), mean_queue_wait.count());
  out += line;
  std::snprintf(line, sizeof(line), "%-8s %5s %10s %10s %11s %11s %s\n",
                "tenant", "jobs", "p50_jct", "p99_jct", "mean_wait",
                "mean_svc", "bottleneck");
  out += line;
  for (const TenantStats& t : tenants) {
    std::snprintf(line, sizeof(line),
                  "%-8u %5llu %9.3fs %9.3fs %10.3fs %10.3fs %s\n", t.tenant,
                  static_cast<unsigned long long>(t.jobs), t.p50_jct.count(),
                  t.p99_jct.count(), t.mean_queue_wait.count(),
                  t.mean_service_time.count(), t.bottleneck().c_str());
    out += line;
  }
  return out;
}

std::string slo_report(const ServiceReport& report) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "SLO attainment (policy=%s, fabric=%uλ, %zu jobs)\n",
                svc::to_string(report.policy).c_str(),
                report.fabric_wavelengths, report.records.size());
  out += line;
  std::snprintf(line, sizeof(line), "%-8s %5s %10s %10s %11s %7s\n", "tenant",
                "jobs", "target", "p99_jct", "violations", "burn");
  out += line;
  for (const TenantStats& t : report.tenants) {
    if (t.slo_target.count() > 0.0) {
      std::snprintf(line, sizeof(line),
                    "%-8u %5llu %9.3fs %9.3fs %11llu %6.1f%%%s\n", t.tenant,
                    static_cast<unsigned long long>(t.jobs),
                    t.slo_target.count(), t.p99_jct.count(),
                    static_cast<unsigned long long>(t.slo_violations),
                    t.slo_burn * 100.0, t.slo_burn > 0.0 ? "  <- burning" : "");
    } else {
      std::snprintf(line, sizeof(line), "%-8u %5llu %10s %9.3fs %11s %7s\n",
                    t.tenant, static_cast<unsigned long long>(t.jobs), "-",
                    t.p99_jct.count(), "-", "-");
    }
    out += line;
  }
  return out;
}

void print_slo_report(const ServiceReport& report) {
  const std::string out = slo_report(report);
  std::fwrite(out.data(), 1, out.size(), stdout);
}

// ---------------------------------------------------------------------------
// Telemetry: the opt-in instrument bundle. One instance lives for the
// duration of a run() when any TelemetryConfig flag is set; the disabled
// path only ever tests the null pointer.

namespace {

/// Initial virtual-time sampling cadence of the metrics time series.
constexpr Seconds kSampleCadence{0.01};
/// Ring capacity of each instrument's TimeSeries.
constexpr std::size_t kSeriesCapacity = 4096;

}  // namespace

struct FabricService::Telemetry {
  using Id = obs::MetricsRegistry::Id;

  explicit Telemetry(const TelemetryConfig& cfg)
      : config(cfg),
        metrics(obs::MetricsRegistry::Options{kSeriesCapacity}),
        trace("wrht-svc") {
    submitted = metrics.counter("svc.submitted");
    admitted = metrics.counter("svc.admitted");
    granted = metrics.counter("svc.granted");
    completed = metrics.counter("svc.completed");
    retunes = metrics.counter("svc.retuned_lanes");
    queue_depth = metrics.gauge("svc.queue_depth");
    in_use = metrics.gauge("svc.wavelengths_in_use");
    fragmentation = metrics.gauge("svc.fragmentation");
    wait_hist = metrics.histogram("svc.queue_wait_s");
    service_hist = metrics.histogram("svc.service_time_s");
    jct_hist = metrics.histogram("svc.jct_s");
    // A fully free fabric is unfragmented by convention.
    metrics.set(fragmentation, 1.0);
  }

  TelemetryConfig config;
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  obs::ChromeTraceSink trace;

  Id submitted, admitted, granted, completed, retunes;
  Id queue_depth, in_use, fragmentation;
  Id wait_hist, service_hist, jct_hist;
  /// Rolling burn-rate gauge per tenant with an SLO target.
  std::map<std::uint32_t, Id> tenant_burn;
  /// Completed / SLO-missed jobs, indexed by tenant (grown on demand);
  /// on_complete runs per job, so these stay flat vectors rather than
  /// maps.
  std::vector<std::uint64_t> tenant_done;
  std::vector<std::uint64_t> tenant_missed;
  /// Admission cause, formatted once — on_admit runs per job and the
  /// policy name never changes mid-run.
  std::string admit_cause;
  /// True when the hooks append to `events` (the events export was
  /// requested, or the trace needs them as its source).
  bool record_events = false;
  /// Set once build_trace() has materialized `trace` from `events`.
  bool trace_built = false;
  /// Live sampling cadence: starts at kSampleCadence and doubles
  /// whenever a full ring's worth of ticks has fired, so a long-makespan
  /// run degrades resolution instead of burning a tick per cadence
  /// forever (total sampler work is O(capacity * log makespan)).
  Seconds cadence{0.0};
  std::size_t ticks_at_cadence = 0;
  /// Last tenant to run on each wavelength, +1 (0 = never granted). A
  /// grant over lanes last held by another tenant is a retune: the MRRs
  /// on those lanes must re-lock to the new tenant's carriers.
  std::vector<std::uint32_t> lane_owner;
  /// Jobs submitted to run() but not yet completed; the periodic sampler
  /// stops rescheduling itself when this reaches zero so the simulator
  /// can drain.
  std::uint64_t outstanding = 0;
};

FabricService::FabricService(ServiceConfig config)
    : config_(std::move(config)),
      policy_(make_policy(config_.policy)),
      allocator_(config_.fabric_wavelengths) {
  simulator_.set_counters(config_.counters);
}

FabricService::~FabricService() = default;

const obs::MetricsRegistry* FabricService::metrics() const {
  return telemetry_ && telemetry_->config.metrics ? &telemetry_->metrics
                                                  : nullptr;
}

const obs::EventLog* FabricService::event_log() const {
  return telemetry_ && telemetry_->config.events ? &telemetry_->events
                                                 : nullptr;
}

const obs::ChromeTraceSink* FabricService::trace() const {
  if (!telemetry_ || !telemetry_->config.trace) return nullptr;
  // The trace is an export artifact: it is materialized from the event
  // log on first access instead of span-by-span inside the simulation
  // hooks, so the enabled run() pays only for recording events.
  if (!telemetry_->trace_built) build_trace();
  return &telemetry_->trace;
}

void FabricService::telemetry_begin(const std::vector<Job>& jobs) {
  telemetry_ = std::make_unique<Telemetry>(config_.telemetry);
  Telemetry& t = *telemetry_;
  t.outstanding = jobs.size();
  t.lane_owner.assign(config_.fabric_wavelengths, 0);
  // The JSONL header already records the policy; the cause repeats just
  // the name (short enough for SSO — this string is copied per admit).
  t.admit_cause = policy_->name();
  t.cadence = kSampleCadence;
  t.events.set_context(obs::EventLog::Context{config_.fabric_wavelengths,
                                              svc::to_string(config_.policy),
                                              config_.telemetry.seed});
  // The event log doubles as the trace's source of truth, so it records
  // whenever either export is requested.
  t.record_events = t.config.events || t.config.trace;
  if (t.record_events) t.events.reserve(6 * jobs.size());
  for (const auto& [tenant, target] : config_.slo_targets) {
    (void)target;
    t.tenant_burn[tenant] =
        t.metrics.gauge("svc.tenant" + std::to_string(tenant) + ".slo_burn");
  }
}

void FabricService::telemetry_sample() {
  Telemetry& t = *telemetry_;
  t.metrics.sample(simulator_.now());
  if (t.outstanding > 0) {
    if (++t.ticks_at_cadence >= kSeriesCapacity) {
      // The ring is full at this resolution: further ticks at the same
      // cadence would only drop the oldest samples one by one. Halve the
      // resolution instead so the series keeps covering the whole run.
      t.ticks_at_cadence = 0;
      t.cadence = Seconds(t.cadence.count() * 2.0);
    }
    simulator_.schedule_in(t.cadence, [this]() { telemetry_sample(); });
  }
}

void FabricService::on_submit(const Job& job) {
  Telemetry& t = *telemetry_;
  const Seconds now = simulator_.now();
  t.metrics.add(t.submitted);
  t.metrics.set(t.queue_depth, static_cast<double>(queue_.size()));
  if (t.record_events) {
    t.events.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kSubmit, now,
                                      job.id, job.tenant, 0, 0, "arrival"});
  }
}

void FabricService::on_admit(const Job& job) {
  Telemetry& t = *telemetry_;
  t.metrics.add(t.admitted);
  t.metrics.set(t.queue_depth, static_cast<double>(queue_.size()));
  if (t.record_events) {
    t.events.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kAdmit,
                                      simulator_.now(), job.id, job.tenant, 0,
                                      0, t.admit_cause});
  }
}

void FabricService::on_grant(const JobRecord& record) {
  Telemetry& t = *telemetry_;
  const Seconds now = simulator_.now();
  const std::uint32_t w_lo = record.lease.w_lo;
  const std::uint32_t w_hi = record.lease.w_hi;
  const std::uint32_t owner = record.job.tenant + 1;

  std::uint32_t retuned = 0;
  for (std::uint32_t w = w_lo; w < w_hi; ++w) {
    if (t.lane_owner[w] != 0 && t.lane_owner[w] != owner) ++retuned;
    t.lane_owner[w] = owner;
  }
  if (retuned > 0) {
    t.metrics.add(t.retunes, static_cast<double>(retuned));
    if (t.record_events) {
      t.events.record(obs::ServiceEvent{
          obs::ServiceEvent::Kind::kRetune, now, record.job.id,
          record.job.tenant, w_lo, w_hi,
          "lanes=" + std::to_string(retuned)});
    }
  }

  t.metrics.add(t.granted);
  t.metrics.set(t.in_use, static_cast<double>(config_.fabric_wavelengths -
                                              allocator_.free_width()));
  t.metrics.set(t.fragmentation, allocator_.fragmentation());
  if (t.record_events) {
    const std::string alg = "alg=" + plan::to_string(record.algorithm);
    t.events.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kGrant, now,
                                      record.job.id, record.job.tenant, w_lo,
                                      w_hi, alg});
    t.events.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kStart, now,
                                      record.job.id, record.job.tenant, w_lo,
                                      w_hi, "service"});
  }
}

void FabricService::on_complete(const JobRecord& record) {
  Telemetry& t = *telemetry_;
  const Seconds now = simulator_.now();
  t.metrics.add(t.completed);
  t.metrics.set(t.in_use, static_cast<double>(config_.fabric_wavelengths -
                                              allocator_.free_width()));
  t.metrics.set(t.fragmentation, allocator_.fragmentation());
  t.metrics.observe(t.wait_hist, record.queue_wait().count());
  t.metrics.observe(t.service_hist, record.service_time().count());
  t.metrics.observe(t.jct_hist, record.jct().count());

  const std::uint32_t tenant = record.job.tenant;
  if (tenant >= t.tenant_done.size()) {
    t.tenant_done.resize(tenant + 1, 0);
    t.tenant_missed.resize(tenant + 1, 0);
  }
  ++t.tenant_done[tenant];
  const auto target = config_.slo_targets.find(tenant);
  if (target != config_.slo_targets.end()) {
    if (record.jct() > target->second) ++t.tenant_missed[tenant];
    t.metrics.set(t.tenant_burn[tenant],
                  static_cast<double>(t.tenant_missed[tenant]) /
                      static_cast<double>(t.tenant_done[tenant]));
  }

  if (t.record_events) {
    t.events.record(obs::ServiceEvent{obs::ServiceEvent::Kind::kComplete, now,
                                      record.job.id, tenant,
                                      record.lease.w_lo, record.lease.w_hi,
                                      "release"});
  }
  require(t.outstanding > 0, "FabricService: completion without submission");
  --t.outstanding;
}

// Materializes the Chrome trace from the event log: one span per
// completed job on its tenant's lane, plus fabric-level counter tracks
// (queue depth, wavelengths in use, fragmentation) stepped at every
// transition. Running this once per export instead of emitting from the
// per-job hooks keeps the enabled run() overhead down to event
// recording, which svc_telemetry_tick budgets; the values are exact
// because every signal here is piecewise-constant between transitions
// and the events carry the same timestamps the hooks saw.
void FabricService::build_trace() const {
  Telemetry& t = *telemetry_;
  t.trace_built = true;

  t.trace.set_track_name(0, "fabric");
  std::set<std::uint32_t> tenants;
  std::size_t completes = 0;
  for (const obs::ServiceEvent& e : t.events.events()) {
    if (e.kind == obs::ServiceEvent::Kind::kSubmit) tenants.insert(e.tenant);
    if (e.kind == obs::ServiceEvent::Kind::kComplete) ++completes;
  }
  for (const std::uint32_t tenant : tenants) {
    t.trace.set_track_name(tenant + 1, "tenant " + std::to_string(tenant));
  }
  t.trace.reserve(completes, t.events.size());

  // Per-job state between submit and complete; the grant cause carries
  // the chosen algorithm ("alg=wrht").
  struct Open {
    Seconds submit{0.0};
    Seconds grant{0.0};
    const std::string* alg = nullptr;
  };
  std::map<std::uint64_t, Open> open;

  // The recorded grants replayed on the live run's lane model, so the
  // in-use and fragmentation tracks are the values the hooks computed.
  WavelengthAllocator lanes(config_.fabric_wavelengths);
  const auto in_use = [&lanes] {
    return static_cast<double>(lanes.fabric_width() - lanes.free_width());
  };

  std::uint64_t depth = 0;
  // A grant recorded at the same instant as a preceding completion was
  // caused by it (the completion's release re-ran admission); a flow
  // arrow makes that head-of-line dependency visible in the trace.
  const obs::ServiceEvent* last_complete = nullptr;
  for (const obs::ServiceEvent& e : t.events.events()) {
    switch (e.kind) {
      case obs::ServiceEvent::Kind::kSubmit: {
        Open& o = open[e.job];
        o.submit = e.time;
        ++depth;
        t.trace.counter(obs::CounterSample{
            "queue depth", e.time, static_cast<double>(depth), 0});
        break;
      }
      case obs::ServiceEvent::Kind::kAdmit:
        if (depth > 0) --depth;
        break;
      case obs::ServiceEvent::Kind::kPreempt:
        ++depth;
        break;
      case obs::ServiceEvent::Kind::kGrant: {
        Open& o = open[e.job];
        o.grant = e.time;
        o.alg = &e.cause;
        lanes.claim(e.w_lo, e.w_hi - e.w_lo);
        t.trace.counter(obs::CounterSample{
            "queue depth", e.time, static_cast<double>(depth), 0});
        t.trace.counter(
            obs::CounterSample{"wavelengths in use", e.time, in_use(), 0});
        t.trace.counter(obs::CounterSample{"fragmentation", e.time,
                                           lanes.fragmentation(), 0});
        if (last_complete != nullptr && last_complete->time == e.time) {
          obs::FlowArrow arrow;
          arrow.name = "release->grant";
          arrow.category = "svc-causal";
          arrow.start = last_complete->time;
          arrow.start_track = last_complete->tenant + 1;
          arrow.finish = e.time;
          arrow.finish_track = e.tenant + 1;
          t.trace.add_flow(std::move(arrow));
        }
        break;
      }
      case obs::ServiceEvent::Kind::kStart:
      case obs::ServiceEvent::Kind::kRetune:
        break;
      case obs::ServiceEvent::Kind::kComplete: {
        const auto it = open.find(e.job);
        if (it == open.end()) break;
        const Open& o = it->second;
        obs::TraceSpan span;
        span.name = "job " + std::to_string(e.job);
        span.category = "svc-job";
        span.start = o.grant;
        span.duration = e.time - o.grant;
        span.track = e.tenant + 1;
        if (o.alg != nullptr && o.alg->rfind("alg=", 0) == 0) {
          span.args.emplace_back("alg", o.alg->substr(4));
        }
        span.num_args.emplace_back("tenant", static_cast<double>(e.tenant));
        span.num_args.emplace_back("w_lo", static_cast<double>(e.w_lo));
        span.num_args.emplace_back("w_hi", static_cast<double>(e.w_hi));
        span.num_args.emplace_back("wait_s", (o.grant - o.submit).count());
        t.trace.span(std::move(span));
        lanes.release(e.w_lo, e.w_hi - e.w_lo);
        t.trace.counter(
            obs::CounterSample{"wavelengths in use", e.time, in_use(), 0});
        t.trace.counter(obs::CounterSample{"fragmentation", e.time,
                                           lanes.fragmentation(), 0});
        open.erase(it);
        last_complete = &e;
        break;
      }
    }
  }
}

FabricService::Price FabricService::price_iteration(const Job& job) {
  const auto key = std::make_tuple(job.num_nodes, job.elements, job.width);
  if (const auto it = prices_.find(key); it != prices_.end()) {
    return it->second;
  }
  plan::PlannerOptions options = config_.planner;
  options.wavelengths = job.width;
  std::optional<Price> best;
  for (const plan::CandidateKind kind :
       {plan::CandidateKind::kWrht, plan::CandidateKind::kFlatAllToAll,
        plan::CandidateKind::kStaticRing}) {
    const plan::Candidate c =
        plan::predict(kind, job.num_nodes, job.elements, options);
    if (!c.feasible) continue;
    // Ties go to the earlier enum value, matching plan_allreduce().
    if (!best || c.predicted_time < best->first) {
      best = {c.predicted_time, kind};
    }
  }
  if (!best) {
    throw InvalidArgument(
        "FabricService: no feasible all-reduce plan for job at width " +
        std::to_string(job.width));
  }
  prices_.emplace(key, *best);
  return *best;
}

void FabricService::try_admit() {
  AdmissionContext ctx;
  ctx.largest_free = allocator_.largest_free();
  ctx.weighted_consumption = [this](std::uint32_t tenant) {
    const auto it = consumed_.find(tenant);
    const double consumed = it == consumed_.end() ? 0.0 : it->second;
    const auto weight = config_.tenant_weights.find(tenant);
    return consumed /
           (weight == config_.tenant_weights.end() ? 1.0 : weight->second);
  };

  for (std::size_t picked = policy_->select(queue_, ctx);
       picked != AdmissionPolicy::kNone;
       picked = policy_->select(queue_, ctx)) {
    Job job = queue_.pop(picked);
    if (telemetry_) on_admit(job);

    const std::optional<std::uint32_t> w_lo = allocator_.allocate(job.width);
    require(w_lo.has_value(),
            "FabricService: policy admitted a job that does not fit");
    ctx.largest_free = allocator_.largest_free();

    JobRecord record;
    record.lease = net::slice_lease(*w_lo, job.width, job.tenant);
    const auto [iteration_time, algorithm] = price_iteration(job);
    record.algorithm = algorithm;
    record.grant = simulator_.now();
    const Seconds service(iteration_time.count() * job.iterations);
    record.completion = record.grant + service;
    // Charge the grant immediately so weighted-fair sees in-flight work.
    consumed_[job.tenant] += static_cast<double>(job.width) * service.count();
    record.job = std::move(job);
    if (config_.counters != nullptr) config_.counters->add("svc.grants", 1);
    if (telemetry_) on_grant(record);

    simulator_.schedule_in(service, [this, record]() {
      allocator_.release(record.lease.w_lo, record.job.width);
      completed_.push_back(record);
      if (config_.counters != nullptr) {
        config_.counters->add("svc.completions", 1);
      }
      if (telemetry_) on_complete(record);
      try_admit();
    });
  }
}

ServiceReport FabricService::run(const std::vector<Job>& jobs) {
  const prof::ScopedTimer timer("svc.run");
  // Long-lived simulator, fresh run: satellite state rewinds, the
  // lifetime events_fired counter keeps counting.
  simulator_.reset();
  allocator_ = WavelengthAllocator(config_.fabric_wavelengths);
  queue_ = AdmissionQueue();
  completed_.clear();
  consumed_.clear();
  telemetry_.reset();
  if (config_.telemetry.any()) telemetry_begin(jobs);

  for (const Job& job : jobs) {
    require(job.num_nodes >= 2, "FabricService: job needs >= 2 nodes");
    require(job.iterations >= 1, "FabricService: job needs >= 1 iteration");
    if (job.width < 1 || job.width > config_.fabric_wavelengths) {
      throw InvalidArgument("FabricService: job " + std::to_string(job.id) +
                            " wants " + std::to_string(job.width) + " of " +
                            std::to_string(config_.fabric_wavelengths) +
                            " wavelengths");
    }
    simulator_.schedule_at(job.arrival, [this, job]() {
      queue_.push(job);
      if (config_.counters != nullptr) config_.counters->add("svc.arrivals", 1);
      if (telemetry_) on_submit(job);
      try_admit();
    });
  }
  // The sampler rides the same event queue: extra read-only events that
  // change no admission decision, scheduled after the arrivals so
  // same-instant ties resolve identically run to run.
  if (telemetry_ && config_.telemetry.metrics) {
    simulator_.schedule_at(Seconds(0.0), [this]() { telemetry_sample(); });
  }
  simulator_.run();
  require(queue_.empty(), "FabricService: run ended with jobs still queued");

  return summarize_records(config_.policy, config_.fabric_wavelengths,
                           completed_, config_.slo_targets);
}

ServiceReport summarize_records(
    PolicyKind policy, std::uint32_t fabric_wavelengths,
    std::vector<JobRecord> records,
    const std::map<std::uint32_t, Seconds>& slo_targets) {
  ServiceReport report;
  report.policy = policy;
  report.fabric_wavelengths = fabric_wavelengths;
  report.records = std::move(records);
  if (report.records.empty()) return report;

  std::vector<double> jct;
  double wait_sum = 0.0;
  double wavelength_seconds = 0.0;
  std::map<std::uint32_t, std::vector<const JobRecord*>> by_tenant;
  for (const JobRecord& r : report.records) {
    jct.push_back(r.jct().count());
    wait_sum += r.queue_wait().count();
    wavelength_seconds +=
        static_cast<double>(r.job.width) * r.service_time().count();
    report.makespan = std::max(report.makespan, r.completion);
    by_tenant[r.job.tenant].push_back(&r);
  }
  report.p50_jct = Seconds(percentile(jct, 0.5));
  report.p99_jct = Seconds(percentile(jct, 0.99));
  report.mean_queue_wait =
      Seconds(wait_sum / static_cast<double>(report.records.size()));
  if (report.makespan.count() > 0.0) {
    report.utilization =
        wavelength_seconds /
        (static_cast<double>(fabric_wavelengths) * report.makespan.count());
  }

  for (const auto& [tenant, tenant_records] : by_tenant) {
    TenantStats stats;
    stats.tenant = tenant;
    stats.jobs = tenant_records.size();
    std::vector<double> tenant_jct;
    double wait = 0.0;
    double service = 0.0;
    for (const JobRecord* r : tenant_records) {
      tenant_jct.push_back(r->jct().count());
      wait += r->queue_wait().count();
      service += r->service_time().count();
      stats.wavelength_seconds +=
          static_cast<double>(r->job.width) * r->service_time().count();
    }
    const auto n = static_cast<double>(tenant_records.size());
    stats.p50_jct = Seconds(percentile(tenant_jct, 0.5));
    stats.p99_jct = Seconds(percentile(tenant_jct, 0.99));
    stats.mean_queue_wait = Seconds(wait / n);
    stats.mean_service_time = Seconds(service / n);
    const auto target = slo_targets.find(tenant);
    if (target != slo_targets.end()) {
      stats.slo_target = target->second;
      for (const JobRecord* r : tenant_records) {
        if (r->jct() > stats.slo_target) ++stats.slo_violations;
      }
      stats.slo_burn =
          static_cast<double>(stats.slo_violations) / n;
    }
    report.tenants.push_back(std::move(stats));
  }
  return report;
}

}  // namespace wrht::svc
