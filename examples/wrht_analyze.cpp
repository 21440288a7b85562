// wrht_analyze: run one All-reduce configuration and print the resource
// bottleneck report — per-resource utilization, the idle-time breakdown
// (MRR reconfiguration / O/E/O / transmission / straggler wait / idle),
// the critical path through the step timeline, and the top idle resources.
//
//   $ ./wrht_analyze [nodes] [elements] [wavelengths] [algorithm] [backend]
//                    [--json PATH]
//   $ ./wrht_analyze --service EVENTS.jsonl
//
// Defaults reproduce a Fig. 5 configuration (N = 1024, w = 64, WRHT on the
// optical ring). With the optical-torus backend, `wrht` is the torus WRHT
// of §6.1 on the torus shape that backend picks. The tool double-checks
// the accounting identities the analysis layer guarantees — breakdown
// sums to total_time and the critical path tiles the run — and fails
// loudly if either drifts, so the example smoke test doubles as an
// acceptance check. --json additionally dumps the machine-readable
// RunReport (steps, counters, utilization) to PATH for downstream tooling.
//
// --service switches to post-hoc service analysis: it replays a
// svc-events-1 JSONL event log (written by `wrht_svc --events` or the
// telemetry bench), rebuilds the queue-depth and utilization time series
// plus the full per-tenant report from the events alone, and prints the
// bottleneck verdict. Replay runs through the same summarize_records()
// arithmetic as the live service, so the numbers match the original run
// exactly.
//
// --blame PATH attaches the transfer-level probe to the run, extracts the
// critical path, attributes the makespan to blame categories
// (reconfiguration / conversion / transmission / processing / straggler
// wait), runs the what-if re-pricings, and writes the byte-deterministic
// wrht-blame-1 JSON to PATH. The accounting identity (sum of categories ==
// makespan) is checked by verify::check_blame_identity and a violation
// fails the run. --blame-trace PATH additionally exports the critical
// path as a Chrome trace whose rounds are chained with flow arrows.
//
// --diff BASE OTHER compares two wrht-blame-1 files (run- or
// service-kind) and localizes any movement to categories, lanes, and
// tenants; exit 1 when OTHER regressed against BASE.
//
// A library error — a malformed or truncated input file, an infeasible
// configuration — prints "wrht_analyze: <message>" (input diagnostics name
// the line) and exits 1; an unknown flag prints the usage and exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/error.hpp"
#include "wrht/core/planner.hpp"
#include "wrht/core/torus_wrht.hpp"
#include "wrht/diag/blame.hpp"
#include "wrht/diag/blame_json.hpp"
#include "wrht/exp/sweep.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/analysis.hpp"
#include "wrht/obs/event_log.hpp"
#include "wrht/obs/occupancy.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/obs/transfer_log.hpp"
#include "wrht/svc/replay.hpp"
#include "wrht/topo/torus.hpp"
#include "wrht/verify/blame.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [nodes] [elements] [wavelengths] [algorithm] "
               "[backend] [--json PATH] [--blame PATH] [--blame-trace PATH] "
               "| --service EVENTS.jsonl | --diff BASE.json OTHER.json\n",
               argv0);
  return 2;
}

int diff_blame_files(const std::string& base_path,
                     const std::string& other_path) {
  using namespace wrht;
  const diag::ParsedBlame base = diag::read_blame_file(base_path);
  const diag::ParsedBlame other = diag::read_blame_file(other_path);
  const diag::BlameDiff diff = diag::diff_blame(base, other);
  std::printf("base:  %s (%s)\nother: %s (%s)\n", base_path.c_str(),
              base.source.c_str(), other_path.c_str(), other.source.c_str());
  std::cout << diff.to_string();
  return diff.regressed ? 1 : 0;
}

int analyze_service(const std::string& events_path) {
  using namespace wrht;
  const obs::EventLog log = obs::EventLog::read_file(events_path);
  std::printf("replaying %s: %zu events, policy=%s, fabric=%uλ\n\n",
              events_path.c_str(), log.size(), log.context().policy.c_str(),
              log.context().fabric_wavelengths);
  const svc::ReplaySummary summary = svc::replay_events(log);
  std::cout << summary.to_string();

  // A few time-series samples so the signal shape is visible in a
  // terminal (the full series is in the summary for tooling).
  const std::size_t n = summary.queue_depth.size();
  if (n > 0) {
    std::printf("\nqueue depth over time (%zu events, every %zu-th):\n",
                n, std::max<std::size_t>(1, n / 8));
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 8)) {
      std::printf("  t=%8.4fs  depth=%-4.0f in_use=%.0f\n",
                  summary.queue_depth[i].time.count(),
                  summary.queue_depth[i].value,
                  summary.wavelengths_in_use[i].value);
    }
  }
  return 0;
}

int run(int argc, char** argv) {
  using namespace wrht;
  // Flags may appear anywhere; everything else is positional. Anything
  // dash-prefixed that is not a known flag is an error, not a positional.
  std::string json_path;
  std::string service_path;
  std::string blame_path;
  std::string blame_trace_path;
  std::string diff_base;
  std::string diff_other;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--service" || arg == "--blame" ||
        arg == "--blame-trace") {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string value = argv[++i];
      if (arg == "--json") {
        json_path = value;
      } else if (arg == "--service") {
        service_path = value;
      } else if (arg == "--blame") {
        blame_path = value;
      } else {
        blame_trace_path = value;
      }
    } else if (arg == "--diff") {
      if (i + 2 >= argc) return usage(argv[0]);
      diff_base = argv[++i];
      diff_other = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  if (!diff_base.empty()) return diff_blame_files(diff_base, diff_other);
  if (!service_path.empty()) return analyze_service(service_path);
  const std::uint32_t nodes =
      !pos.empty() ? static_cast<std::uint32_t>(std::atoi(pos[0].c_str()))
                   : 1024;
  const std::size_t elements =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 1'000'000;
  const std::uint32_t wavelengths =
      pos.size() > 2 ? static_cast<std::uint32_t>(std::atoi(pos[2].c_str()))
                     : 64;
  const std::string algorithm = pos.size() > 3 ? pos[3] : "wrht";
  const std::string backend_name = pos.size() > 4 ? pos[4] : "optical-ring";

  exp::ensure_initialized();  // WRHT algorithm + builtin backends

  // The registry's `wrht` is the flat-ring builder, whose transfers cross
  // both torus dimensions; on the torus, `wrht` is the dimension-aware
  // torus WRHT (§6.1) on the shape the optical-torus factory picks.
  const coll::Schedule schedule = [&] {
    if (algorithm == "wrht" && backend_name == "optical-torus") {
      const auto [rows, cols] = topo::near_square(nodes);
      const topo::Torus torus(rows, cols);
      core::WrhtOptions row_options;
      row_options.wavelengths = wavelengths;
      row_options.group_size =
          core::plan_wrht(torus.cols(), wavelengths).group_size;
      return core::torus_wrht_allreduce(torus, elements, row_options);
    }
    coll::AllreduceParams params;
    params.num_nodes = nodes;
    params.elements = elements;
    params.wavelengths = wavelengths;
    if (algorithm == "wrht") {
      params.group_size = core::plan_wrht(nodes, wavelengths).group_size;
    }
    return coll::Registry::instance().build(algorithm, params);
  }();

  net::BackendConfig config;
  config.num_nodes = nodes;
  config.wavelengths = wavelengths;
  // The paper's sweeps assume no per-node MRR constraint (§5.4).
  config.validate_node_capacity = false;
  const std::unique_ptr<net::Backend> backend =
      net::BackendRegistry::instance().create(backend_name, config);

  std::printf("analyzing %s on %s: N=%u, %zu elements, w=%u\n\n",
              algorithm.c_str(), backend_name.c_str(), nodes, elements,
              wavelengths);

  // Bring our own sampler so the full analysis (per-resource accounts,
  // critical path) is available, not just the RunReport summary fields.
  obs::OccupancySampler sampler;
  obs::TransferLog transfers;
  obs::Probe probe;
  probe.occupancy = &sampler;
  if (!blame_path.empty() || !blame_trace_path.empty()) {
    probe.transfers = &transfers;
  }
  RunReport report = backend->execute(schedule, probe);

  const obs::UtilizationAnalysis analysis =
      obs::analyze_utilization(report, sampler);
  obs::print_bottleneck_report(std::cout, report, analysis, 5);

  if (!json_path.empty()) {
    report.write_json_file(json_path);
    std::printf("\nrun report written to %s\n", json_path.c_str());
  }

  if (!blame_path.empty() || !blame_trace_path.empty()) {
    const diag::BlameReport blame = diag::build_blame(transfers);
    std::printf("\n%s", blame.to_string().c_str());

    // What-if re-pricings: a sound upper bound on the speedup from
    // removing one category (the DAG is re-longest-pathed, so cross-lane
    // slack is honoured), plus the policy counterfactual.
    std::vector<std::pair<std::string, double>> what_if;
    for (const diag::BlameCategory category :
         {diag::BlameCategory::kReconfiguration,
          diag::BlameCategory::kConversion,
          diag::BlameCategory::kTransmission,
          diag::BlameCategory::kStragglerWait}) {
      what_if.emplace_back("zero_" + diag::to_string(category),
                           diag::what_if_zero(transfers, category).count());
    }
    what_if.emplace_back("policy_on_retune",
                         diag::what_if_on_retune(transfers).count());
    std::printf("what-if makespans:\n");
    for (const auto& [label, seconds] : what_if) {
      std::printf("  %-24s %12.6e s (%+.1f%%)\n", label.c_str(), seconds,
                  blame.total_time.count() > 0.0
                      ? 100.0 * (seconds - blame.total_time.count()) /
                            blame.total_time.count()
                      : 0.0);
    }

    const verify::CheckResult identity = verify::check_blame_identity(blame);
    if (!identity.ok()) {
      std::fprintf(stderr, "%s\n", identity.summary().c_str());
      return 1;
    }
    if (!blame_path.empty()) {
      diag::write_blame_file(blame, what_if, blame_path);
      std::printf("blame report written to %s\n", blame_path.c_str());
    }
    if (!blame_trace_path.empty()) {
      obs::ChromeTraceSink sink("wrht-blame");
      diag::export_critical_path(blame, sink);
      sink.write_file(blame_trace_path);
      std::printf("critical-path trace written to %s "
                  "(load in chrome://tracing)\n",
                  blame_trace_path.c_str());
    }
  }

  // Accounting identities (the acceptance criteria for the analysis
  // layer); drift here means an engine recorded overlapping or misplaced
  // occupancy intervals.
  const double breakdown_err =
      std::fabs(analysis.breakdown.total().count() - report.total_time.count());
  const double path_err = std::fabs(analysis.critical_path_length.count() -
                                    report.total_time.count());
  std::printf("\nchecks: |breakdown - total| = %.3g s, "
              "|critical path - total| = %.3g s\n",
              breakdown_err, path_err);
  if (breakdown_err > 1e-9 || path_err > 1e-9) {
    std::fprintf(stderr, "accounting identity violated\n");
    return 1;
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
