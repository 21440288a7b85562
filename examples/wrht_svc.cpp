// wrht_svc: run a seeded multi-tenant workload through the shared-fabric
// service and print the per-tenant SLO / bottleneck report.
//
//   $ ./wrht_svc [jobs] [wavelengths] [policy|all] [interarrival_ms]
//                [burstiness] [--trace PATH] [--metrics PATH]
//                [--events PATH] [--slo TENANT=SECONDS ...]
//
// Defaults: 64 jobs, 64 wavelengths, every policy, 20 ms mean gap, 0.3
// burstiness. `policy` is one of fifo, priority, backfill, weighted-fair,
// or `all` to sweep them on the same trace. The report tells each tenant
// whether their SLO is queue-bound (admission is the bottleneck — change
// policy or buy width) or service-bound (the all-reduce itself dominates —
// wider slices or a better schedule).
//
// Telemetry flags opt into the wrht::obs service instruments (off by
// default, and the report is byte-identical either way):
//   --trace PATH    Chrome-trace timeline: one lane per tenant plus queue
//                   depth / wavelengths-in-use / fragmentation counter
//                   tracks. Load in chrome://tracing or Perfetto.
//   --metrics PATH  long-format CSV of every instrument's time series,
//                   sampled on a virtual-time cadence.
//   --events PATH   svc-events-1 JSONL event log (replayable with
//                   `wrht_analyze --service PATH`).
//   --blame PATH    per-tenant JCT blame (queueing / fragmentation /
//                   reconfiguration / conversion / transmission) as a
//                   "service"-kind wrht-blame-1 JSON; the accounting
//                   identity is checked and a violation fails the run.
//   --slo T=S       give tenant T a JCT target of S seconds (repeatable);
//                   prints the SLO attainment table.
// With `all`, each policy overwrites the same files; the last policy's
// telemetry survives. A library error (an unknown policy, an empty fabric)
// prints "wrht_svc: <message>" and exits 1; an unknown flag exits 2.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/diag/svc_blame.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/obs/metrics.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/svc/service.hpp"
#include "wrht/svc/workload.hpp"
#include "wrht/verify/blame.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [jobs] [wavelengths] [policy|all] [interarrival_ms] "
               "[burstiness] [--trace PATH] [--metrics PATH] [--events PATH] "
               "[--blame PATH] [--slo TENANT=SECONDS]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  using namespace wrht;

  std::string trace_path;
  std::string metrics_path;
  std::string events_path;
  std::string blame_path;
  std::map<std::uint32_t, Seconds> slo_targets;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" || arg == "--metrics" || arg == "--events" ||
        arg == "--blame" || arg == "--slo") {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string value = argv[++i];
      if (arg == "--trace") {
        trace_path = value;
      } else if (arg == "--metrics") {
        metrics_path = value;
      } else if (arg == "--events") {
        events_path = value;
      } else if (arg == "--blame") {
        blame_path = value;
      } else {
        const std::size_t eq = value.find('=');
        if (eq == std::string::npos) return usage(argv[0]);
        slo_targets[static_cast<std::uint32_t>(
            std::atoi(value.substr(0, eq).c_str()))] =
            Seconds(std::atof(value.substr(eq + 1).c_str()));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else {
      pos.push_back(arg);
    }
  }

  svc::WorkloadConfig workload;
  workload.num_jobs =
      !pos.empty() ? static_cast<std::uint32_t>(std::atoi(pos[0].c_str())) : 64;
  workload.fabric_wavelengths =
      pos.size() > 1 ? static_cast<std::uint32_t>(std::atoi(pos[1].c_str()))
                     : 64;
  const std::string policy_arg = pos.size() > 2 ? pos[2] : "all";
  workload.mean_interarrival =
      Seconds((pos.size() > 3 ? std::atof(pos[3].c_str()) : 20.0) * 1e-3);
  workload.burstiness = pos.size() > 4 ? std::atof(pos[4].c_str()) : 0.3;

  std::vector<svc::PolicyKind> policies;
  if (policy_arg == "all") {
    policies = svc::all_policies();
  } else {
    policies = {svc::policy_from_string(policy_arg)};  // throws on typos
  }

  std::printf(
      "wrht_svc: %u jobs over a %u-wavelength fabric (%u-node all-reduces, "
      "mean gap %.1f ms, burstiness %.2f, seed %llu)\n",
      workload.num_jobs, workload.fabric_wavelengths, workload.num_nodes,
      workload.mean_interarrival.count() * 1e3, workload.burstiness,
      static_cast<unsigned long long>(workload.seed));

  const std::vector<svc::Job> jobs = svc::generate_workload(workload);

  // One long-lived service per policy sweep would also work; a fresh one
  // per policy keeps the printed reports independent.
  for (const svc::PolicyKind kind : policies) {
    svc::ServiceConfig config;
    config.fabric_wavelengths = workload.fabric_wavelengths;
    config.policy = kind;
    config.slo_targets = slo_targets;
    config.telemetry.trace = !trace_path.empty();
    config.telemetry.metrics = !metrics_path.empty();
    config.telemetry.events = !events_path.empty();
    config.telemetry.seed = workload.seed;
    svc::FabricService service(config);
    const svc::ServiceReport report = service.run(jobs);
    std::printf("\n");
    std::cout << report.to_string();
    if (!slo_targets.empty()) svc::print_slo_report(report);

    if (service.trace() != nullptr) {
      service.trace()->write_file(trace_path);
      std::printf("trace written to %s (load in chrome://tracing)\n",
                  trace_path.c_str());
    }
    if (service.metrics() != nullptr) {
      service.metrics()->write_series_csv(metrics_path);
      std::printf("metric time series written to %s\n", metrics_path.c_str());
    }
    if (service.event_log() != nullptr) {
      service.event_log()->write_file(events_path);
      std::printf("event log written to %s (replay with wrht_analyze "
                  "--service)\n",
                  events_path.c_str());
    }
    if (!blame_path.empty()) {
      const diag::ServiceBlame blame = diag::build_service_blame(
          report, config.planner, config.fabric_wavelengths);
      std::printf("\n%s", blame.to_string().c_str());
      const verify::CheckResult identity =
          verify::check_blame_identity(blame);
      if (!identity.ok()) {
        std::fprintf(stderr, "%s\n", identity.summary().c_str());
        return 1;
      }
      diag::write_service_blame_file(blame, blame_path);
      std::printf("blame report written to %s (diff with wrht_analyze "
                  "--diff)\n",
                  blame_path.c_str());
    }
  }
  return 0;
}

}  // namespace

// Library errors (malformed input files, infeasible configurations) end
// the run with the message and exit status 1; usage errors stay at 2.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const wrht::Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
