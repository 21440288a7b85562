// Process harness: every pass runs in a fresh child process so each one
// pays its own start-up, owns its own heap, and reports its own peak RSS.
//
// The parent forks, execs this binary in --pass mode, and waits with
// wait4(), which hands back the child's CPU time and peak RSS. The child
// reports over a pipe when its inputs were ready and when its timed work
// ended (CLOCK_MONOTONIC, shared by both processes), plus its checks,
// output digest and, when traced, its per-layer metrics. From those:
//
//   setup_s     = fork -> inputs ready (exec, loader, registries, inputs)
//   wall_s      = inputs ready -> timed work done
//   cpu_s       = user + system CPU of the child
//   peak_rss_mb = the child's peak resident set
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace wrht::e2e {

/// Threads one pass may use: half of nproc, at least 1 and at most 4,
/// nproc from the affinity mask. Leaving half the CPUs idle keeps a pass
/// off CPUs the host is also busy with: on a shared 4-vCPU VM the
/// run-to-run spread of paper_figures' wall_s fell from ~11% with 4
/// threads to ~2% with 2.
[[nodiscard]] unsigned pass_threads();
[[nodiscard]] unsigned online_cpus();

struct PassRequest {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool traced = false;
  /// Stop after set-up: a cheap extra set-up sample.
  bool setup_only = false;
  /// Traced passes write their host spans here as a Chrome trace.
  std::string trace_file;
};

struct PassSample {
  /// The child exited 0 and reported everything.
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::map<std::string, double> layers;
};

/// Runs one pass in a child process; kills it at `deadline_ns`
/// (CLOCK_MONOTONIC) and reports a failed sample.
[[nodiscard]] PassSample spawn_pass(const PassRequest& request,
                                    std::int64_t deadline_ns);

/// The child side of spawn_pass(): runs the pass and writes the report
/// to `report_fd`. Returns the process exit code.
[[nodiscard]] int run_pass_child(const PassRequest& request, int report_fd);

}  // namespace wrht::e2e
