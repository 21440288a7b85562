// Declarative experiment sweeps over the backend registry.
//
// Every figure bench in the paper is the same experiment shape: a cross
// product of workloads x node counts x wavelength budgets, with a few
// named series (algorithm + backend + per-series knobs) evaluated at each
// grid point. SweepSpec declares that shape; SweepRunner expands the
// grid, builds each distinct schedule once (memoized across grid points
// that share one), executes every point through net::BackendRegistry on a
// worker-thread pool, and returns rows in deterministic grid order —
// identical regardless of thread count.
//
// Memory contract: the runner counts, from the expanded grid, how many
// points will use each schedule and drops the cached copy after the last
// one. A sweep holds a schedule only while a grid point still needs it,
// so its peak is the schedules in flight (about one per worker), not the
// sum over the grid: an N=4096 Ring All-reduce alone is 33.5 M transfers.
//
// Determinism contract: each point gets its own backend instance and a
// deterministic rng seed derived from the point's coordinates, so
// random-fit RWA results do not depend on scheduling order. Per-run
// counters are attached to each row's RunReport and merged (kind-aware)
// into SweepSpec::counters when set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "wrht/collectives/schedule.hpp"
#include "wrht/net/registry.hpp"
#include "wrht/obs/counters.hpp"
#include "wrht/obs/run_report.hpp"
#include "wrht/obs/trace.hpp"

namespace wrht::exp {

/// One model/message size from Table 3 (or any synthetic size).
struct Workload {
  std::string name;
  std::size_t elements = 0;
};

struct SweepPoint;

/// One curve in a figure: an algorithm on a backend, plus the knobs that
/// distinguish it from its sibling curves.
struct Series {
  /// Label carried into every SweepRow (e.g. "wrht", "o_ring", "m=4").
  std::string name;
  /// coll::Registry algorithm name; ignored when `builder` is set.
  std::string algorithm;
  /// net::BackendRegistry backend name.
  std::string backend = "optical-ring";
  /// Group size m forwarded to the schedule builder (0 = algorithm
  /// default / WRHT auto-plan).
  std::uint32_t group_size = 0;
  /// Overrides `group_size` per point when set (e.g. m = f(N, w)).
  std::function<std::uint32_t(const SweepPoint&)> group_size_fn;
  /// Bypasses the algorithm registry with a custom schedule per point
  /// (single-step RWA patterns, WRHT with all-to-all disabled, ...).
  /// Must be a pure function of the point: results are memoized by
  /// (series, workload, N, m, w).
  std::function<coll::Schedule(const SweepPoint&)> builder;
  /// Last-mile tweak of the backend config for this series (rate
  /// convention, reconfiguration accounting, RWA policy, torus shape).
  std::function<void(const SweepPoint&, net::BackendConfig&)> configure;
};

/// How the runner reuses schedule builds across grid points.
enum class ScheduleCacheMode {
  /// Build every point from scratch — the pre-memoization reference path
  /// for differential tests.
  kOff,
  /// Memoize exact (series, elements, N, m, w) repeats behind flat hashed
  /// keys, plus delta construction: registry-built full-vector schedules
  /// (WRHT, trees, recursive doubling) have a step/circuit structure that
  /// depends only on (N, m, w), so a sibling point differing only in
  /// elements is served by copying the cached build and rescaling its
  /// transfer counts instead of re-running the builder. Chunked schedules
  /// (ring, hring, halving-doubling) and custom builders always rebuild.
  kIncremental,
};

/// One cell of the expanded grid, handed to Series callbacks and carried
/// into the result row.
struct SweepPoint {
  Workload workload;
  std::uint32_t nodes = 0;
  std::uint32_t wavelengths = 0;
  std::size_t series_index = 0;
  std::string series;
  /// Effective group size after group_size / group_size_fn resolution.
  std::uint32_t group_size = 0;
};

struct SweepRow {
  SweepPoint point;
  RunReport report;
};

/// The declarative experiment: grid axes, series, and shared config.
/// Expansion order is workloads (outer) x nodes x wavelengths x series
/// (inner), matching the row order of the paper's figure CSVs.
struct SweepSpec {
  std::vector<Workload> workloads;
  std::vector<std::uint32_t> nodes;
  std::vector<std::uint32_t> wavelengths;
  std::vector<Series> series;
  /// Base backend config; num_nodes, wavelengths and rng_seed are
  /// overwritten per point (rng_seed becomes a deterministic per-point
  /// hash seeded by the value here).
  net::BackendConfig config;
  /// Schedule-build reuse across grid points (see ScheduleCacheMode).
  /// Cache modes never change results — only how often builders run; the
  /// equivalence is pinned by test_scale_equivalence.
  ScheduleCacheMode schedule_cache = ScheduleCacheMode::kIncremental;
  /// When set, every run's counters merge here (thread-safe, kind-aware),
  /// plus the runner's own "sweep.schedule.{builds,patches,hits}" totals.
  obs::Counters* counters = nullptr;
  /// When set, every run's trace spans and counter samples funnel here.
  /// Each worker emits on its own track (0 .. workers-1); when the sink is
  /// a ChromeTraceSink the tracks are labelled "sweep-worker-<k>" via
  /// thread_name metadata, so Perfetto shows worker lanes instead of raw
  /// track ids. Emission is serialized by the runner, so any TraceSink
  /// implementation works unmodified.
  obs::TraceSink* trace = nullptr;
};

/// Registers the WRHT algorithm and the built-in backends exactly once;
/// safe to call from any thread. SweepRunner calls it for you.
void ensure_initialized();

class SweepRunner {
 public:
  /// `threads` = 0 resolves WRHT_SWEEP_THREADS from the environment,
  /// falling back to std::thread::hardware_concurrency().
  explicit SweepRunner(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Expands the grid and executes every point. Rows come back in grid
  /// order; the first worker exception is rethrown after all workers
  /// join.
  [[nodiscard]] std::vector<SweepRow> run(const SweepSpec& spec) const;

 private:
  unsigned threads_;
};

}  // namespace wrht::exp
