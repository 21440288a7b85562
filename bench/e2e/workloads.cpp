#include "workloads.hpp"

#include <malloc.h>

#include <cmath>
#include <deque>
#include <fstream>
#include <sstream>

#include "spans.hpp"
#include "wrht/collectives/registry.hpp"
#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/table.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/diag/svc_blame.hpp"
#include "wrht/dnn/zoo.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/blame.hpp"
#include "wrht/verify/invariants.hpp"
#include "wrht/verify/oracle.hpp"

#ifndef WRHT_BENCH_SOURCE_ROOT
#error "WRHT_BENCH_SOURCE_ROOT must name the repository root"
#endif

namespace wrht::e2e {

void PassRecord::check(bool ok, std::string_view what) {
  ++checks_;
  if (ok) return;
  ++failed_;
  if (first_failure_.empty()) first_failure_ = what;
}

void PassRecord::digest(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    digest_ ^= p[i];
    digest_ *= 1099511628211ULL;
  }
}

namespace {

constexpr std::uint32_t kWavelengths = 64;

/// The registry name a pass uses: the traced twin when tracing.
std::string entry(const PassOptions& options, const std::string& name) {
  return options.traced ? traced(name) : name;
}

bool same_time(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The bursty-saturated trace of bench_svc_policies (8 ms mean gap,
/// burstiness 0.5, 64-wavelength fabric, 64-node jobs), `jobs` long.
svc::WorkloadConfig bursty_trace(std::uint32_t jobs, std::uint64_t seed) {
  svc::WorkloadConfig config;
  config.num_jobs = jobs;
  config.num_nodes = 64;
  config.fabric_wavelengths = kWavelengths;
  config.mean_interarrival = Seconds(0.008);
  config.burstiness = 0.5;
  config.seed = seed;
  return config;
}

/// Runs the jobs through one service, checks that every job completes
/// exactly once on a slice of its width inside the fabric with an ordered
/// timeline, and records the service-layer metrics.
svc::ServiceReport serve(PassRecord& pass, svc::FabricService& service,
                         const std::vector<svc::Job>& jobs) {
  const std::string policy = svc::to_string(service.config().policy);
  svc::ServiceReport report = [&] {
    const Span timed("svc.run", policy);
    return service.run(jobs);
  }();
  const std::uint32_t fabric = service.config().fabric_wavelengths;
  std::vector<std::uint8_t> seen(jobs.size(), 0);
  for (const svc::JobRecord& r : report.records) {
    const bool once = r.job.id < jobs.size() && seen[r.job.id]++ == 0;
    const bool timeline =
        r.grant >= r.job.arrival && r.completion >= r.grant;
    const bool slice = r.lease.w_hi <= fabric &&
                       r.lease.w_hi - r.lease.w_lo == r.job.width;
    pass.check(once && timeline && slice,
               "svc: a job completed twice, out of order or off its slice");
    pass.digest(r.job.id);
    pass.digest(r.grant.count());
    pass.digest(r.completion.count());
  }
  pass.check(report.records.size() == jobs.size(),
             "svc: a job never completed");
  pass.layer("svc.jobs", static_cast<double>(report.records.size()));
  pass.layer("sim.events",
             static_cast<double>(service.simulator().events_fired()));
  return report;
}

/// Time-averaged queue depth of a simulated run, by Little's law.
double mean_queue_depth(const svc::ServiceReport& report) {
  double waited = 0.0;
  for (const svc::JobRecord& r : report.records) {
    waited += r.queue_wait().count();
  }
  return waited / report.makespan.count();
}

// ---------------------------------------------------------------------------
// paper_figures: the Fig. 5 and Fig. 7 sweeps, checked row by row against
// the checked-in CSVs.

class PaperFigures final : public Workload {
 public:
  explicit PaperFigures(const PassOptions& options) : options_(options) {}

  void setup() override {
    std::vector<exp::Workload> payloads;
    if (options_.smoke) {
      payloads = {exp::Workload{"tiny", 4096}};
    } else {
      for (const dnn::Model& model : dnn::paper_workloads()) {
        payloads.push_back(exp::Workload{
            model.name(), static_cast<std::size_t>(model.parameter_count())});
      }
    }

    fig5_.workloads = payloads;
    fig5_.nodes = options_.smoke ? std::vector<std::uint32_t>{16}
                                 : std::vector<std::uint32_t>{1024};
    fig5_.wavelengths = options_.smoke
                            ? std::vector<std::uint32_t>{2, 4}
                            : std::vector<std::uint32_t>{4, 16, 64, 256};
    fig5_.series = {series("ring", "ring", "optical-ring"),
                    series("hring", "hring", "optical-ring", 5),
                    series("btree", "btree", "optical-ring"),
                    series("wrht", "wrht", "optical-ring")};

    fig7_.workloads = payloads;
    fig7_.nodes = options_.smoke
                      ? std::vector<std::uint32_t>{16, 32}
                      : std::vector<std::uint32_t>{128, 256, 512, 1024};
    fig7_.wavelengths = {kWavelengths};
    fig7_.series = {series("e_ring", "ring", "electrical-flow"),
                    series("e_rd", "recursive_doubling", "electrical-flow"),
                    series("o_ring", "ring", "optical-ring"),
                    series("wrht", "wrht", "optical-ring")};

    for (exp::SweepSpec* spec : {&fig5_, &fig7_}) {
      spec->config.validate_node_capacity = false;
      // The sweep pool is the pass's only pool: RWA stays serial inside it.
      spec->config.rwa_threads = 1;
      spec->counters = &counters_;
    }
    if (!options_.smoke) {
      fig5_csv_ = read_reference("fig5_wavelengths.csv");
      fig7_csv_ = read_reference("fig7_electrical_vs_optical.csv");
    }
  }

  void run(PassRecord& pass) override {
    const exp::SweepRunner runner(options_.threads);
    sweep(pass, runner, fig5_, "fig5", fig5_csv_, false);
    sweep(pass, runner, fig7_, "fig7", fig7_csv_, true);
    pass.layer("exp.schedule.builds", static_cast<double>(counters_.value(
                                          "sweep.schedule.builds")));
    pass.layer("exp.schedule.patches", static_cast<double>(counters_.value(
                                           "sweep.schedule.patches")));
    pass.layer("exp.schedule.hits",
               static_cast<double>(counters_.value("sweep.schedule.hits")));
  }

 private:
  exp::Series series(const std::string& name, const std::string& algorithm,
                     const std::string& backend,
                     std::uint32_t group_size = 0) const {
    exp::Series s;
    s.name = name;
    s.algorithm = entry(options_, algorithm);
    s.backend = entry(options_, backend);
    s.group_size = group_size;
    return s;
  }

  static std::vector<std::string> read_reference(const std::string& file) {
    const std::string path = std::string(WRHT_BENCH_SOURCE_ROOT) + "/" + file;
    std::ifstream in(path);
    if (!in) throw Error("cannot read reference CSV " + path);
    std::vector<std::string> rows;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) rows.push_back(line);
    }
    return rows;
  }

  /// Runs one figure's grid and checks each row as the figure bench would
  /// write it (time_s to 6 digits, normalized by WRHT at the first node
  /// count, last wavelength budget and last payload) against the CSV.
  void sweep(PassRecord& pass, const exp::SweepRunner& runner,
             const exp::SweepSpec& spec, const char* figure,
             const std::vector<std::string>& csv, bool by_nodes) {
    std::vector<exp::SweepRow> rows;
    {
      const Span timed("exp.sweep", figure);
      rows = runner.run(spec);
    }
    const Span timed("check.figure", figure);
    double base = 0.0;
    for (const exp::SweepRow& row : rows) {
      if (row.point.workload.name == spec.workloads.back().name &&
          row.point.nodes == spec.nodes.front() &&
          row.point.wavelengths == spec.wavelengths.back() &&
          row.point.series == "wrht") {
        base = row.report.total_time.count();
      }
    }
    pass.check(options_.smoke || rows.size() == csv.size(),
               "paper_figures: row count differs from the reference CSV");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const exp::SweepRow& row = rows[i];
      const double t = row.report.total_time.count();
      pass.digest(t);
      if (options_.smoke) {
        pass.check(std::isfinite(t) && t > 0.0,
                   "paper_figures: non-positive communication time");
        continue;
      }
      const std::uint32_t axis =
          by_nodes ? row.point.nodes : row.point.wavelengths;
      const std::string line =
          CsvWriter::escape(row.point.workload.name) + "," +
          std::to_string(axis) + "," + row.point.series + "," +
          Table::num(t, 6) + "," + Table::num(t / base, 4);
      pass.check(i < csv.size() && csv[i] == line,
                 "paper_figures: a row differs from the reference CSV");
    }
  }

  PassOptions options_;
  exp::SweepSpec fig5_;
  exp::SweepSpec fig7_;
  std::vector<std::string> fig5_csv_;
  std::vector<std::string> fig7_csv_;
  obs::Counters counters_;
};

// ---------------------------------------------------------------------------
// svc_bursty: one seeded bursty-saturated trace under all four policies.

class SvcBursty final : public Workload {
 public:
  explicit SvcBursty(const PassOptions& options) : options_(options) {}

  void setup() override {
    // The four services run back to back in one process. When the first
    // frees its large vectors, glibc raises its mmap threshold, and the
    // later services then grow those vectors inside the heap, where the
    // old and new copies stay resident together and the peak depends on
    // the layout earlier runs left: up to 20% more by trace seed. Pinning
    // the threshold at glibc's initial 128 KiB keeps large blocks mmapped
    // as in a fresh process, so peak_rss_mb is the largest service's own
    // working set.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    jobs_ = svc::generate_workload(
        bursty_trace(options_.smoke ? 200 : 16000, options_.seed));
  }

  void run(PassRecord& pass) override {
    const std::vector<svc::PolicyKind> policies = svc::all_policies();
    double depth = 0.0;
    for (const svc::PolicyKind kind : policies) {
      svc::ServiceConfig config;
      config.fabric_wavelengths = kWavelengths;
      config.policy = kind;
      svc::FabricService service(config);
      depth += mean_queue_depth(serve(pass, service, jobs_));
    }
    pass.layer("svc.mean_queue_depth",
               depth / static_cast<double>(policies.size()));
  }

 private:
  PassOptions options_;
  std::vector<svc::Job> jobs_;
};

// ---------------------------------------------------------------------------
// scale_1m: a million-node WRHT build, its ResNet-50 rescale and optical
// run, the sampled oracle, and a 1024 x 1024 torus build and run.

class Scale1M final : public Workload {
 public:
  explicit Scale1M(const PassOptions& options) : options_(options) {}

  void setup() override {
    nodes_ = options_.smoke ? 10000 : 1000000;
    side_ = options_.smoke ? 32 : 1024;
    elements_ = static_cast<std::size_t>(dnn::resnet50().parameter_count());
  }

  void run(PassRecord& pass) override {
    {
      coll::AllreduceParams params;
      params.num_nodes = nodes_;
      params.elements = 1;
      params.wavelengths = kWavelengths;
      const coll::Schedule base =
          coll::Registry::instance().build(entry(options_, "wrht"), params);
      const std::uint32_t m = core::plan_wrht(nodes_, kWavelengths).group_size;
      pass.check(
          verify::check_wrht_step_count(base, nodes_, m, kWavelengths).ok(),
          "scale_1m: WRHT step count differs from the closed form");

      const coll::Schedule full = [&] {
        const Span timed("collectives.rescale");
        coll::Schedule patched = base;
        patched.rescale_elements(elements_);
        return patched;
      }();
      execute(pass, "optical-ring", full, nodes_, 0);

      const verify::OracleReport oracle = [&] {
        const Span timed("verify.oracle");
        return verify::check_allreduce(base);
      }();
      pass.check(oracle.ok(), "scale_1m: oracle rejected the WRHT schedule");
      pass.digest(oracle.max_abs_error);
    }

    const topo::Torus torus(side_, side_);
    const core::WrhtOptions options{
        core::plan_wrht(side_, kWavelengths).group_size, kWavelengths};
    const coll::Schedule schedule = [&] {
      const Span timed("core.torus_build");
      return core::torus_wrht_allreduce(torus, elements_, options);
    }();
    tally_schedule(schedule);
    pass.check(schedule.num_steps() ==
                   core::torus_wrht_plan(torus, options).total(),
               "scale_1m: torus WRHT step count differs from its plan");
    execute(pass, "optical-torus", schedule, side_ * side_, side_);
  }

 private:
  void execute(PassRecord& pass, const std::string& backend,
               const coll::Schedule& schedule, std::uint32_t nodes,
               std::uint32_t side) const {
    net::BackendConfig config;
    config.num_nodes = nodes;
    config.wavelengths = kWavelengths;
    config.validate_node_capacity = false;
    config.rwa_threads = options_.threads;
    config.torus_rows = side;
    config.torus_cols = side;
    const RunReport report = net::BackendRegistry::instance()
                                 .create(entry(options_, backend), config)
                                 ->execute(schedule);
    const double t = report.total_time.count();
    pass.check(report.steps == schedule.num_steps() && std::isfinite(t) &&
                   t > 0.0,
               "scale_1m: engine run lost steps or time");
    pass.digest(t);
    pass.digest(report.rounds);
  }

  PassOptions options_;
  std::uint32_t nodes_ = 0;
  std::uint32_t side_ = 0;
  std::size_t elements_ = 0;
};

// ---------------------------------------------------------------------------
// observe: every engine with every probe on, the analyses on top, and a
// service run with full telemetry, replay and blame.

class Observe final : public Workload {
 public:
  explicit Observe(const PassOptions& options) : options_(options) {}

  void setup() override {
    ring_nodes_ = options_.smoke ? 64 : 1024;
    packet_nodes_ = options_.smoke ? 16 : 128;
    side_ = options_.smoke ? 8 : 32;
    jobs_ = svc::generate_workload(
        bursty_trace(options_.smoke ? 100 : 8000, options_.seed));
  }

  void run(PassRecord& pass) override {
    obs::ChromeTraceSink trace("wrht_bench observe");
    obs::Counters counters;
    for (const char* algorithm : {"ring", "wrht", "btree"}) {
      const coll::Schedule& wide = build(algorithm, ring_nodes_, kPayload);
      engine(pass, "optical-ring", wide, trace, counters);
      engine(pass, "electrical-flow", wide, trace, counters);
      engine(pass, "electrical-packet",
             build(algorithm, packet_nodes_, kPacketPayload), trace,
             counters);
    }
    {
      const topo::Torus torus(side_, side_);
      const Span timed("core.torus_build");
      schedules_.push_back(core::torus_wrht_allreduce(
          torus, kPayload,
          core::WrhtOptions{core::plan_wrht(side_, kWavelengths).group_size,
                            kWavelengths}));
    }
    tally_schedule(schedules_.back());
    engine(pass, "optical-torus", schedules_.back(), trace, counters);
    serialize(pass, "chrome_trace",
              [&](std::ostream& out) { trace.write(out); });
    pass.layer("obs.trace.spans", static_cast<double>(trace.size()));

    const svc::ServiceConfig config = service_config(true);
    svc::FabricService service(config);
    const svc::ServiceReport report = serve(pass, service, jobs_);
    pass.layer("svc.mean_queue_depth", mean_queue_depth(report));

    const svc::ReplaySummary replay = [&] {
      const Span timed("svc.replay");
      return svc::replay_events(*service.event_log());
    }();
    pass.check(replay.report.records.size() == report.records.size() &&
                   replay.report.p50_jct == report.p50_jct &&
                   replay.report.p99_jct == report.p99_jct &&
                   replay.report.makespan == report.makespan,
               "observe: event-log replay differs from the live service");
    const diag::ServiceBlame blame = [&] {
      const Span timed("diag.service_blame");
      return diag::build_service_blame(report, config.planner,
                                       config.fabric_wavelengths);
    }();
    {
      const Span timed("verify.blame_identity", "service");
      pass.check(verify::check_blame_identity(blame).ok(),
                 "observe: service blame identity violated");
    }
    pass.digest(blame.attributed());
    serialize(pass, "service", [&](std::ostream& out) {
      service.event_log()->write_jsonl(out);
      service.trace()->write(out);
      service.metrics()->write_json(out);
    });
    pass.layer("obs.event_log.events",
               static_cast<double>(service.event_log()->size()));
  }

  void reference(PassRecord& pass) override {
    double unobserved = 0.0;
    for (const Run& run : runs_) {
      const std::unique_ptr<net::Backend> backend =
          net::BackendRegistry::instance().create(run.backend,
                                                  config(*run.schedule));
      const std::int64_t start = now_ns();
      (void)backend->execute(*run.schedule);
      unobserved += static_cast<double>(now_ns() - start) * 1e-9;
    }
    pass.layer("obs.probe_overhead_ratio", observed_engine_s_ / unobserved);

    // Telemetry costs a few percent, less than one run's noise: take the
    // fastest of three interleaved runs of each side.
    double with = 1e300;
    double without = 1e300;
    for (int k = 0; k < 3; ++k) {
      for (const bool telemetry : {false, true}) {
        svc::FabricService service(service_config(telemetry));
        const std::int64_t start = now_ns();
        (void)service.run(jobs_);
        double& best = telemetry ? with : without;
        best = std::min(best, static_cast<double>(now_ns() - start) * 1e-9);
      }
    }
    pass.layer("svc.telemetry_overhead_ratio", with / without);
  }

 private:
  static constexpr std::size_t kPayload = 1 << 20;
  static constexpr std::size_t kPacketPayload = 1 << 12;

  struct Run {
    std::string backend;
    const coll::Schedule* schedule = nullptr;
  };

  const coll::Schedule& build(const char* algorithm, std::uint32_t nodes,
                              std::size_t elements) {
    coll::AllreduceParams params;
    params.num_nodes = nodes;
    params.elements = elements;
    params.wavelengths = kWavelengths;
    schedules_.push_back(
        coll::Registry::instance().build(entry(options_, algorithm), params));
    return schedules_.back();
  }

  svc::ServiceConfig service_config(bool telemetry) const {
    svc::ServiceConfig out;
    out.fabric_wavelengths = kWavelengths;
    out.policy = svc::PolicyKind::kWeightedFair;
    out.telemetry.metrics = telemetry;
    out.telemetry.events = telemetry;
    out.telemetry.trace = telemetry;
    out.telemetry.seed = options_.seed;
    return out;
  }

  net::BackendConfig config(const coll::Schedule& schedule) const {
    net::BackendConfig out;
    out.num_nodes = schedule.num_nodes();
    out.wavelengths = kWavelengths;
    out.validate_node_capacity = false;
    out.rwa_threads = options_.threads;
    return out;
  }

  /// One fully observed engine run followed by every analysis of it.
  void engine(PassRecord& pass, const std::string& backend,
              const coll::Schedule& schedule, obs::ChromeTraceSink& trace,
              obs::Counters& counters) {
    runs_.push_back(Run{backend, &schedule});
    obs::OccupancySampler occupancy;
    obs::TransferLog log;
    const obs::Probe probe{&trace, &counters,
                           static_cast<std::uint32_t>(runs_.size() - 1),
                           &occupancy, &log};
    const std::unique_ptr<net::Backend> instance =
        net::BackendRegistry::instance().create(entry(options_, backend),
                                                config(schedule));
    const std::int64_t start = now_ns();
    const RunReport report = instance->execute(schedule, probe);
    observed_engine_s_ += static_cast<double>(now_ns() - start) * 1e-9;
    const double total = report.total_time.count();
    pass.digest(total);

    const obs::UtilizationAnalysis utilization = [&] {
      const Span timed("obs.analyze_utilization");
      return obs::analyze_utilization(report, occupancy);
    }();
    pass.check(same_time(utilization.critical_path_length.count(), total),
               "observe: utilization critical path does not tile the run");

    const diag::BlameReport blame = [&] {
      const Span timed("diag.build_blame");
      return diag::build_blame(log);
    }();
    {
      const Span timed("diag.what_if");
      for (const diag::BlameCategory category :
           {diag::BlameCategory::kReconfiguration,
            diag::BlameCategory::kConversion,
            diag::BlameCategory::kTransmission}) {
        pass.check(diag::what_if_zero(log, category).count() <=
                       total * (1.0 + 1e-9),
                   "observe: a what-if bound exceeds the makespan");
      }
      pass.check(diag::what_if_on_retune(log).count() <= total * (1.0 + 1e-9),
                 "observe: the on-retune what-if exceeds the makespan");
    }
    {
      const Span timed("verify.blame_identity", backend);
      pass.check(verify::check_blame_identity(blame).ok(),
                 "observe: run blame identity violated");
    }
    pass.digest(blame.attributed());
    serialize(pass, "run_report",
              [&](std::ostream& out) { report.write_json(out); });

    pass.layer("obs.transfer_log.records",
               static_cast<double>(log.steps().size() + log.rounds().size() +
                                   log.transfers().size()));
    std::size_t intervals = 0;
    for (obs::OccupancySampler::ResourceRef r = 0;
         r < occupancy.num_resources(); ++r) {
      intervals += occupancy.intervals(r).size();
    }
    pass.layer("obs.occupancy.intervals", static_cast<double>(intervals));
  }

  template <typename Write>
  void serialize(PassRecord& pass, const char* what, const Write& write) {
    std::ostringstream out;
    {
      const Span timed("obs.serialize", what);
      write(out);
    }
    pass.layer("obs.bytes_written", static_cast<double>(out.tellp()));
  }

  PassOptions options_;
  std::uint32_t ring_nodes_ = 0;
  std::uint32_t packet_nodes_ = 0;
  std::uint32_t side_ = 0;
  std::vector<svc::Job> jobs_;
  // Kept for the unobserved reference runs. A deque, because runs_ points
  // into it while later schedules are still being appended.
  std::deque<coll::Schedule> schedules_;
  std::vector<Run> runs_;
  double observed_engine_s_ = 0.0;
};

template <typename W>
std::unique_ptr<Workload> make(const PassOptions& options) {
  return std::make_unique<W>(options);
}

}  // namespace

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> workloads = {
      {"paper_figures", false, &make<PaperFigures>},
      {"svc_bursty", true, &make<SvcBursty>},
      {"scale_1m", false, &make<Scale1M>},
      {"observe", true, &make<Observe>},
  };
  return workloads;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace wrht::e2e
