// wrht_perf: the host-side performance harness. Runs a pinned micro-suite
// (schedule construction, RWA, all four execution backends, the planner,
// the verification oracle, blame, the event kernel, the service and a
// small parallel sweep, plus the two observability contracts: the cost of
// a ScopedTimer with profiling off and the price of attaching a probe),
// aggregates repetitions into median/p90 metrics, and writes the
// machine-readable BENCH_micro.json that the baseline tooling consumes.
//
//   $ wrht_perf [--scale] [--tiny] [--reps N] [--out PATH]
//               [--baseline PATH] [--write-baseline PATH] [--drift X]
//
// --scale swaps in the scale-suite (BENCH_scale.json): a 10^5-node WRHT
// schedule build, its element-rescale patch, an N=1024 Ring All-reduce
// build at ResNet-50 size and an optical-ring plus an electrical-flow run
// of it, the oracle over the WRHT build, large-step RWA, and a sweep whose
// grid volume (points x max N) must be at least 10x the micro-suite
// sweep's — exact reserves and the incremental cache are what keep it at
// micro-sweep wall-clock, and the harness exits 1 if the volume floor is
// not met (bench/baselines/scale{,-tiny}.baseline ratchet the wall times).
// --tiny shrinks every workload to CI-smoke scale (same metric names, so
// tiny runs compare against tiny baselines — bench/baselines/
// micro-tiny.baseline — and full runs against micro.baseline).
// --baseline compares the fresh measurement against a checked-in baseline
// with per-metric relative-drift thresholds and exits 1 on regression;
// --write-baseline snapshots the measurement as a new baseline with a
// uniform --drift threshold (default 3.0: a 4x slowdown regresses; see
// EXPERIMENTS.md for the refresh workflow).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wrht/collectives/ring_allreduce.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/optical/rwa.hpp"
#include "wrht/plan/schedule_planner.hpp"
#include "wrht/prof/baseline.hpp"
#include "wrht/prof/perf_report.hpp"
#include "wrht/prof/prof.hpp"
#include "wrht/sim/simulator.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/topo/ring.hpp"
#include "wrht/verify/oracle.hpp"

namespace {

using namespace wrht;

struct Options {
  bool tiny = false;
  bool scale = false;
  std::uint32_t reps = 0;   // 0 = default (5 full / 3 tiny)
  std::string out;          // empty = BENCH_{micro,scale}.json by mode
  std::string baseline;
  std::string write_baseline;
  double drift = 3.0;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scale] [--tiny] [--reps N] [--out PATH]\n"
      "          [--baseline PATH] [--write-baseline PATH] [--drift X]\n",
      argv0);
  return 2;
}

double time_once(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  return wall.count();
}

// Shared tail for both suites: RSS + phase capture, JSON emission, the
// human-readable metric table, and the baseline write/compare gates.
int finalize_report(const Options& opt, prof::ProfRegistry& registry,
                    prof::PerfReport& report, double suite_wall_s) {
  report.wall_time_s = suite_wall_s;
  report.peak_rss_bytes = prof::peak_rss_bytes();
  report.add_metric("peak_rss_mb",
                    static_cast<double>(report.peak_rss_bytes) / 1e6, "MB");
  report.capture(registry);

  report.write_json_file(opt.out);
  std::printf("wrht_perf: %s %s suite, %u reps, %u sweep threads, %.3f s wall\n",
              opt.tiny ? "tiny" : "full", report.name.c_str(), opt.reps,
              report.threads, report.wall_time_s);
  std::printf("perf report written to %s\n", opt.out.c_str());
  std::printf("\n%-34s %14s\n", "metric", "value");
  for (const prof::PerfMetric& m : report.metrics) {
    std::printf("  %-32s %12.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  if (!opt.write_baseline.empty()) {
    prof::Baseline::from_report(report, opt.drift).save(opt.write_baseline);
    std::printf("\nbaseline written to %s (drift %.2f)\n",
                opt.write_baseline.c_str(), opt.drift);
  }

  if (!opt.baseline.empty()) {
    const prof::Baseline baseline = prof::Baseline::load(opt.baseline);
    const prof::CompareReport compared = prof::compare(report, baseline);
    std::printf("\ncomparison vs %s:\n", opt.baseline.c_str());
    compared.print(std::cout);
    if (!compared.ok()) {
      std::fprintf(stderr, "wrht_perf: PERFORMANCE REGRESSION vs %s\n",
                   opt.baseline.c_str());
      return 1;
    }
    std::printf("wrht_perf: within baseline thresholds\n");
  }
  return 0;
}

// The scale suite: the N~10^5 regime the reserve contract and the
// incremental cache target. Measures the big-build / patch / RWA hot paths
// directly, then runs a schedule-only sweep whose grid volume (points x
// max N) must be >= 10x the micro-suite sweep's pinned volume — the
// volume floor is a hard gate (exit 1), the wall-clock ratchet lives in
// bench/baselines/scale{,-tiny}.baseline.
int run_scale(const Options& opt) {
  // Pinned sizes, identical on every machine per mode.
  const std::uint32_t big_n = opt.tiny ? 20000 : 100000;
  const std::uint32_t big_w = 64;
  const std::uint32_t rwa_n = opt.tiny ? 1024 : 4096;
  const std::uint32_t ring_n = opt.tiny ? 256 : 1024;
  // The micro-suite sweep's grid volume: 1 workload x 2 node counts x 3
  // series at max N 64 (full) / 16 (tiny) = 6 points -> 384 / 96.
  const std::size_t micro_sweep_volume = opt.tiny ? 96 : 384;

  const core::WrhtPlan big_plan = core::plan_wrht(big_n, big_w);
  const core::WrhtPlan rwa_plan = core::plan_wrht(rwa_n, big_w);
  const coll::Schedule rwa_sched = core::wrht_allreduce(
      rwa_n, 1, core::WrhtOptions{rwa_plan.group_size, big_w});
  const topo::Ring rwa_ring(rwa_n);

  prof::ProfRegistry registry;
  prof::PerfReport report;
  report.name = "scale";
  report.repetitions = opt.reps;
  report.threads = exp::SweepRunner().threads();

  const auto suite_start = std::chrono::steady_clock::now();
  std::size_t sweep_volume = 0;
  {
    const prof::ScopedProfiling profiling(registry);

    // Full schedule build at N~10^5 (elements=1 because full-vector
    // structure is element-independent).
    {
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.schedule_build_large");
        samples.push_back(time_once([&] {
          (void)core::wrht_allreduce(
              big_n, 1, core::WrhtOptions{big_plan.group_size, big_w});
        }));
      }
      report.add_sample_metrics("schedule_build_large.wall_s", samples, "s");
    }

    const coll::Schedule big = core::wrht_allreduce(
        big_n, 1, core::WrhtOptions{big_plan.group_size, big_w});

    // Element-rescale patch of the big build: the incremental-cache hot
    // path (copy + rescale to ResNet-50's 25.5M parameters).
    {
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.rescale_patch_large");
        samples.push_back(time_once([&] {
          coll::Schedule patched = big;
          patched.rescale_elements(25557032);
        }));
      }
      report.add_sample_metrics("rescale_patch_large.wall_s", samples, "s");
    }

    // Ring All-reduce build at ResNet-50 size: the baseline every Fig. 5
    // and Fig. 7 point sets against WRHT, 2(N-1) x N transfers (2.1 M,
    // 67 MB at N=1024).
    {
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.ring_build");
        samples.push_back(time_once([&] {
          (void)coll::ring_allreduce(ring_n, 25557032);
        }));
      }
      report.add_sample_metrics("ring_build.wall_s", samples, "s");
    }

    // What a Fig. 5 / Fig. 7 point pays to price that ring: one
    // optical-ring and one electrical-flow run, each with a Counters
    // probe as a sweep point attaches. Each backend prices the ring once
    // untimed, so the timed runs price on pattern-cache hits, as a sweep
    // worker's repeated points do, and the row times reading the schedule.
    {
      const coll::Schedule ring = coll::ring_allreduce(ring_n, 25557032);
      net::BackendConfig config;
      config.num_nodes = ring_n;
      config.wavelengths = big_w;
      const std::unique_ptr<net::Backend> backends[] = {
          net::BackendRegistry::instance().create("optical-ring", config),
          net::BackendRegistry::instance().create("electrical-flow", config)};
      const auto run_both = [&] {
        for (const std::unique_ptr<net::Backend>& backend : backends) {
          obs::Counters counters;
          (void)backend->execute(ring, obs::Probe{nullptr, &counters});
        }
      };
      run_both();
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.ring_run");
        samples.push_back(time_once(run_both));
      }
      report.add_sample_metrics("ring_run.wall_s", samples, "s");
    }

    // The data-level oracle over the big build.
    {
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.oracle_large");
        samples.push_back(time_once([&] {
          if (!verify::check_allreduce(big).ok()) {
            throw Error("wrht_perf: oracle rejected the large WRHT build");
          }
        }));
      }
      report.add_sample_metrics("oracle_large.wall_s", samples, "s");
    }

    // First-fit RWA over one step of a large WRHT schedule.
    {
      optics::RwaOptions rwa;
      rwa.wavelengths = big_w;
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.rwa_assign_large");
        samples.push_back(time_once([&] {
          (void)optics::assign_rounds(
              rwa_ring, rwa_sched.steps().front().transfers, rwa);
        }));
      }
      report.add_sample_metrics("rwa_assign_large.wall_s", samples, "s");
    }

    // The headline sweep: elements x nodes x {wrht, btree} on the
    // schedule-only backend. Every point that differs from a cached
    // sibling only in elements is served by an incremental rescale patch,
    // so the grid carries 10x+ the micro sweep's volume at comparable
    // wall-clock.
    {
      exp::SweepSpec spec;
      const std::size_t workload_count = opt.tiny ? 4 : 8;
      for (std::size_t i = 0; i < workload_count; ++i) {
        const std::size_t elements = std::size_t{1024} << i;
        // Appended rather than `"s" + std::to_string(...)`: GCC 12 flags
        // that operator+ with a false -Wrestrict once it is inlined.
        std::string name = "s";
        name.append(std::to_string(elements));
        spec.workloads.push_back(exp::Workload{std::move(name), elements});
      }
      spec.nodes = opt.tiny ? std::vector<std::uint32_t>{40, 80, 160}
                            : std::vector<std::uint32_t>{160, 320, 640};
      spec.wavelengths = {8};
      spec.series.resize(2);
      spec.series[0].name = "wrht";
      spec.series[0].algorithm = "wrht";
      spec.series[0].backend = "schedule-only";
      spec.series[1].name = "btree";
      spec.series[1].algorithm = "btree";
      spec.series[1].backend = "schedule-only";
      spec.config.validate_node_capacity = false;
      spec.schedule_cache = exp::ScheduleCacheMode::kIncremental;

      const exp::SweepRunner runner;
      std::vector<double> walls, rates;
      std::size_t points = 0;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.scale_sweep");
        const double wall = time_once([&] {
          points = runner.run(spec).size();
        });
        walls.push_back(wall);
        rates.push_back(static_cast<double>(points) /
                        (wall > 0.0 ? wall : 1e-12));
      }
      sweep_volume = points * spec.nodes.back();
      report.add_sample_metrics("scale_sweep.wall_s", walls, "s");
      report.add_sample_metrics("scale_sweep.grid_points_per_s", rates, "/s");
      report.add_metric("scale_sweep.points_x_max_n",
                        static_cast<double>(sweep_volume), "ptsN");
    }
  }
  const std::chrono::duration<double> suite_wall =
      std::chrono::steady_clock::now() - suite_start;

  if (sweep_volume < 10 * micro_sweep_volume) {
    std::fprintf(stderr,
                 "wrht_perf: scale sweep volume %zu is below the 10x floor "
                 "(%zu)\n",
                 sweep_volume, 10 * micro_sweep_volume);
    return 1;
  }

  return finalize_report(opt, registry, report, suite_wall.count());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--scale") {
      opt.scale = true;
    } else if (arg == "--reps") {
      const char* v = value();
      if (v == nullptr || std::atoi(v) <= 0) return usage(argv[0]);
      opt.reps = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.out = v;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.baseline = v;
    } else if (arg == "--write-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.write_baseline = v;
    } else if (arg == "--drift") {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 0.0) return usage(argv[0]);
      opt.drift = std::atof(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.reps == 0) opt.reps = opt.tiny ? 3 : 5;
  if (opt.out.empty()) {
    opt.out = opt.scale ? "BENCH_scale.json" : "BENCH_micro.json";
  }

  exp::ensure_initialized();

  if (opt.scale) return run_scale(opt);

  // Pinned workload sizes: identical on every machine so a BENCH_micro.json
  // is comparable across runs of the same mode.
  const std::uint32_t sched_n = opt.tiny ? 64 : 1024;
  const std::uint32_t sched_w = opt.tiny ? 8 : 64;
  const std::uint32_t optical_n = opt.tiny ? 16 : 256;
  const std::uint32_t flow_n = opt.tiny ? 16 : 128;
  const std::uint32_t packet_n = opt.tiny ? 8 : 32;
  const std::uint32_t oracle_n = opt.tiny ? 8 : 32;
  const std::size_t oracle_elems = opt.tiny ? 64 : 256;
  const int kernel_events = opt.tiny ? 4096 : 65536;

  // Shared inputs, built once outside the timed regions.
  const core::WrhtPlan plan = core::plan_wrht(sched_n, sched_w);
  const coll::Schedule wrht_sched = core::wrht_allreduce(
      sched_n, 64, core::WrhtOptions{plan.group_size, sched_w});
  const topo::Ring sched_ring(sched_n);
  const coll::Schedule optical_sched =
      coll::ring_allreduce(optical_n, 4 * optical_n);
  // The torus engine rejects transfers that cross both dimensions, so it
  // gets the paper's dimension-aware torus WRHT schedule (§6.1), not the
  // plain ring.
  const std::uint32_t torus_side = opt.tiny ? 4 : 16;
  const coll::Schedule torus_sched = core::torus_wrht_allreduce(
      topo::Torus(torus_side, torus_side), 4 * optical_n,
      core::WrhtOptions{core::plan_wrht(torus_side, 16).group_size, 16});
  const coll::Schedule flow_sched = coll::ring_allreduce(flow_n, 4 * flow_n);
  const coll::Schedule packet_sched =
      coll::ring_allreduce(packet_n, 4 * packet_n);
  const coll::Schedule oracle_sched =
      coll::ring_allreduce(oracle_n, oracle_elems);

  // Transfer-level timeline for the blame_build micro, captured once
  // outside the timed region (the metric prices the DAG analysis, not the
  // engine run that feeds it).
  obs::TransferLog blame_log;
  {
    net::BackendConfig config;
    config.num_nodes = optical_n;
    config.wavelengths = 16;
    obs::Probe probe;
    probe.transfers = &blame_log;
    (void)net::BackendRegistry::instance()
        .create("optical-ring", config)
        ->execute(optical_sched, probe);
  }

  const auto backend_run = [](const std::string& name, std::uint32_t nodes,
                              std::uint32_t wavelengths,
                              const coll::Schedule& schedule) {
    net::BackendConfig config;
    config.num_nodes = nodes;
    config.wavelengths = wavelengths;
    const std::unique_ptr<net::Backend> backend =
        net::BackendRegistry::instance().create(name, config);
    const RunReport report = backend->execute(schedule, obs::Probe{});
    if (report.total_time.count() <= 0.0) {
      throw Error("wrht_perf: " + name + " priced zero time");
    }
  };

  // The micro-suite: name -> one repetition. Names are the metric schema;
  // changing them invalidates checked-in baselines (schema drift fails the
  // comparison by design).
  struct Micro {
    std::string name;
    std::function<void()> run;
  };
  const std::vector<Micro> suite = {
      {"schedule_build",
       [&] {
         (void)core::wrht_allreduce(sched_n, 64,
                                    core::WrhtOptions{plan.group_size,
                                                      sched_w});
       }},
      {"rwa_assign",
       [&] {
         optics::RwaOptions rwa;
         rwa.wavelengths = sched_w;
         (void)optics::assign_rounds(
             sched_ring, wrht_sched.steps().front().transfers, rwa);
       }},
      {"optical_ring_execute",
       [&] { backend_run("optical-ring", optical_n, 16, optical_sched); }},
      {"optical_torus_execute",
       [&] {
         backend_run("optical-torus", torus_side * torus_side, 16,
                     torus_sched);
       }},
      {"electrical_flow_execute",
       [&] { backend_run("electrical-flow", flow_n, 16, flow_sched); }},
      {"electrical_packet_execute",
       [&] { backend_run("electrical-packet", packet_n, 16, packet_sched); }},
      {"planner_plan",
       [&] {
         plan::PlannerOptions planner;
         planner.wavelengths = 16;
         planner.policy = net::ReconfigPolicy::kOverlapped;
         const plan::PlanResult planned =
             plan::plan_allreduce(optical_n, 4 * optical_n, planner);
         if (!planned.chosen.feasible) {
           throw Error("wrht_perf: planner found no feasible candidate");
         }
       }},
      {"verify_oracle",
       [&] {
         const verify::OracleReport report =
             verify::check_allreduce(oracle_sched, verify::OracleOptions{});
         if (!report.ok()) throw Error("wrht_perf: oracle failed");
       }},
      {"blame_build",
       [&] {
         const diag::BlameReport blame = diag::build_blame(blame_log);
         if (blame.attributed() <= 0.0) {
           throw Error("wrht_perf: blame_build attributed zero time");
         }
       }},
  };

  prof::ProfRegistry registry;
  prof::PerfReport report;
  report.name = "micro";
  report.repetitions = opt.reps;
  report.threads = exp::SweepRunner().threads();

  const auto suite_start = std::chrono::steady_clock::now();

  // The off-by-default contract: with no registry installed a ScopedTimer
  // is one pointer test and nothing else (prof.hpp). Timed before the
  // suite installs its own registry; 2^20 timers put the total in ms.
  {
    std::vector<double> samples;
    samples.reserve(opt.reps);
    for (std::uint32_t r = 0; r < opt.reps; ++r) {
      samples.push_back(time_once([] {
        for (int i = 0; i < (1 << 20); ++i) {
          const prof::ScopedTimer timer("suite.scoped_timer_off");
        }
      }));
    }
    report.add_sample_metrics("scoped_timer_off.wall_s", samples, "s");
  }

  {
    const prof::ScopedProfiling profiling(registry);

    for (const Micro& micro : suite) {
      std::vector<double> samples;
      samples.reserve(opt.reps);
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite." + micro.name);
        samples.push_back(time_once(micro.run));
      }
      report.add_sample_metrics(micro.name + ".wall_s", samples, "s");
    }

    // The price of observation: the optical_ring_execute run with a trace
    // sink and counters attached, over the same run unobserved. Min of 3
    // interleaved runs per side and rep, as svc_telemetry_tick does.
    {
      net::BackendConfig config;
      config.num_nodes = optical_n;
      config.wavelengths = 16;
      const std::unique_ptr<net::Backend> backend =
          net::BackendRegistry::instance().create("optical-ring", config);
      std::vector<double> ratios;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.probe_overhead");
        double wall_off = 1e9, wall_on = 1e9;
        for (int k = 0; k < 3; ++k) {
          wall_off = std::min(wall_off, time_once([&] {
            (void)backend->execute(optical_sched, obs::Probe{});
          }));
          wall_on = std::min(wall_on, time_once([&] {
            obs::MemoryTraceSink sink;
            obs::Counters counters;
            (void)backend->execute(optical_sched,
                                   obs::Probe{&sink, &counters, 0});
          }));
        }
        ratios.push_back(wall_on / (wall_off > 0.0 ? wall_off : 1e-12));
      }
      report.add_sample_metrics("probe_overhead.ratio", ratios, "x");
    }

    // Event kernel: wall time plus simulated-event throughput.
    {
      std::vector<double> walls, rates;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.event_kernel");
        sim::Simulator simulator;
        const double wall = time_once([&] {
          for (int i = 0; i < kernel_events; ++i) {
            simulator.schedule_in(Seconds(static_cast<double>((i * 31) % 1000)),
                                  [] {});
          }
          simulator.run();
        });
        walls.push_back(wall);
        rates.push_back(static_cast<double>(simulator.events_fired()) /
                        (wall > 0.0 ? wall : 1e-12));
      }
      report.add_sample_metrics("event_kernel.wall_s", walls, "s");
      report.add_sample_metrics("event_kernel.events_per_s", rates, "/s");
    }

    // Service tick: one FabricService run end to end — workload arrival,
    // admission, lease allocation, closed-form pricing, completion — on a
    // long-lived simulator. Job throughput is the operator-facing rate.
    {
      svc::WorkloadConfig workload;
      workload.num_jobs = opt.tiny ? 24 : 96;
      workload.num_nodes = opt.tiny ? 16 : 64;
      workload.fabric_wavelengths = opt.tiny ? 16 : 64;
      workload.mean_interarrival = Seconds(0.01);
      workload.burstiness = 0.3;
      const std::vector<svc::Job> jobs = svc::generate_workload(workload);
      svc::ServiceConfig svc_config;
      svc_config.fabric_wavelengths = workload.fabric_wavelengths;
      svc_config.policy = svc::PolicyKind::kWeightedFair;
      svc::FabricService service(svc_config);

      std::vector<double> walls, rates;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.svc_tick");
        std::size_t completed = 0;
        const double wall = time_once([&] {
          completed = service.run(jobs).records.size();
        });
        if (completed != jobs.size()) {
          throw Error("wrht_perf: svc_tick dropped jobs");
        }
        walls.push_back(wall);
        rates.push_back(static_cast<double>(completed) /
                        (wall > 0.0 ? wall : 1e-12));
      }
      report.add_sample_metrics("svc_tick.wall_s", walls, "s");
      report.add_sample_metrics("svc_tick.jobs_per_s", rates, "/s");
    }

    // Service tick with full telemetry (metrics + events + trace) on the
    // bench_svc_policies bursty-saturated load — the per-rep
    // enabled/disabled ratio, interleaved so frequency drift hits both
    // sides. The baselines pin the ratio so telemetry overhead cannot
    // silently creep. Its base is small: both services live across reps,
    // so every run after the first prices jobs from the service's memo,
    // and on a 4-vCPU x86 VM (Release) telemetry adds about 0.05 ms to a
    // disabled run of about 0.1 ms at full scale. The ratio therefore
    // reads about 1.6 full and about 2.1 tiny.
    {
      svc::WorkloadConfig workload;
      workload.num_jobs = opt.tiny ? 32 : 128;
      workload.num_nodes = opt.tiny ? 16 : 64;
      workload.fabric_wavelengths = opt.tiny ? 16 : 64;
      workload.mean_interarrival = Seconds(opt.tiny ? 0.01 : 0.008);
      workload.burstiness = 0.5;
      const std::vector<svc::Job> jobs = svc::generate_workload(workload);
      svc::ServiceConfig svc_config;
      svc_config.fabric_wavelengths = workload.fabric_wavelengths;
      svc_config.policy = svc::PolicyKind::kWeightedFair;
      svc::FabricService off(svc_config);
      svc_config.telemetry.metrics = true;
      svc_config.telemetry.events = true;
      svc_config.telemetry.trace = true;
      svc::FabricService on(svc_config);

      std::vector<double> walls, ratios;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        const prof::ScopedTimer timer("suite.svc_telemetry_tick");
        // Min-of-K per rep: a single 2-3 ms run is dominated by scheduler
        // and frequency noise, and a ratio of two noisy one-shots swings
        // by several percent. The min over interleaved pairs estimates
        // the undisturbed cost of each side.
        double wall_off = 1e9, wall_on = 1e9;
        for (int k = 0; k < 5; ++k) {
          std::size_t completed = 0;
          wall_off = std::min(wall_off, time_once([&] {
            completed = off.run(jobs).records.size();
          }));
          wall_on = std::min(wall_on, time_once([&] {
            completed += on.run(jobs).records.size();
          }));
          if (completed != 2 * jobs.size()) {
            throw Error("wrht_perf: svc_telemetry_tick dropped jobs");
          }
        }
        walls.push_back(wall_on);
        ratios.push_back(wall_on / (wall_off > 0.0 ? wall_off : 1e-12));
      }
      report.add_sample_metrics("svc_telemetry_tick.wall_s", walls, "s");
      report.add_sample_metrics("svc_telemetry_tick.overhead_ratio", ratios,
                                "x");
    }

    // Parallel sweep: grid-point throughput and worker-pool efficiency.
    {
      exp::SweepSpec spec;
      spec.workloads = {exp::Workload{"micro", opt.tiny ? 1024u : 8192u}};
      spec.nodes = opt.tiny ? std::vector<std::uint32_t>{8, 16}
                            : std::vector<std::uint32_t>{32, 64};
      spec.wavelengths = {8};
      spec.series.resize(3);
      spec.series[0].name = "wrht";
      spec.series[0].algorithm = "wrht";
      spec.series[1].name = "ring";
      spec.series[1].algorithm = "ring";
      spec.series[2].name = "flow";
      spec.series[2].algorithm = "ring";
      spec.series[2].backend = "electrical-flow";
      spec.config.validate_node_capacity = false;

      const exp::SweepRunner runner;
      std::vector<double> walls, rates;
      for (std::uint32_t r = 0; r < opt.reps; ++r) {
        std::size_t points = 0;
        const double wall = time_once([&] {
          points = runner.run(spec).size();
        });
        walls.push_back(wall);
        rates.push_back(static_cast<double>(points) /
                        (wall > 0.0 ? wall : 1e-12));
      }
      report.add_sample_metrics("sweep.wall_s", walls, "s");
      report.add_sample_metrics("sweep.grid_points_per_s", rates, "/s");
    }
  }
  const std::chrono::duration<double> suite_wall =
      std::chrono::steady_clock::now() - suite_start;

  return finalize_report(opt, registry, report, suite_wall.count());
}
