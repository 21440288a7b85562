#include "wrht/exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "wrht/collectives/registry.hpp"
#include "wrht/common/env.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/log.hpp"
#include "wrht/core/wrht_schedule.hpp"
#include "wrht/obs/trace.hpp"
#include "wrht/obs/trace_json.hpp"
#include "wrht/prof/prof.hpp"

namespace wrht::exp {

namespace {

using SchedulePtr = std::shared_ptr<const coll::Schedule>;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t fnv_mix(std::uint64_t hash, const std::string& value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (const char c : value) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

/// Deterministic per-point seed: a pure function of the point's
/// coordinates and the spec's base seed, so random-fit RWA draws the same
/// wavelengths no matter which worker runs the point or in what order.
std::uint64_t point_seed(std::uint64_t base, const SweepPoint& point) {
  std::uint64_t hash = fnv_mix(14695981039346656037ULL, base);
  hash = fnv_mix(hash, point.workload.name);
  hash = fnv_mix(hash, point.workload.elements);
  hash = fnv_mix(hash, point.nodes);
  hash = fnv_mix(hash, point.wavelengths);
  hash = fnv_mix(hash, point.series);
  hash = fnv_mix(hash, point.series_index);
  return hash;
}

/// Flat memo key: every input that can change the built schedule, hashed
/// and compared as plain integers (the former concatenated-string keys
/// showed up in sweep profiles once grids reached 10^3+ points). Custom
/// builders fold the series and workload names into `ident` (they are
/// required to be pure functions of the point); registry algorithms fold
/// only the algorithm name — the workload's display name cannot change
/// the schedule, so workloads aliasing one element count share a build.
struct ScheduleKey {
  std::uint64_t ident = 0;
  std::uint64_t elements = 0;
  std::uint32_t nodes = 0;
  std::uint32_t group_size = 0;
  std::uint32_t wavelengths = 0;
  bool operator==(const ScheduleKey&) const = default;
};

struct ScheduleKeyHash {
  std::size_t operator()(const ScheduleKey& key) const {
    std::uint64_t hash = fnv_mix(14695981039346656037ULL, key.ident);
    hash = fnv_mix(hash, key.elements);
    hash = fnv_mix(hash, key.nodes);
    hash = fnv_mix(hash, key.group_size);
    hash = fnv_mix(hash, key.wavelengths);
    return static_cast<std::size_t>(hash);
  }
};

ScheduleKey schedule_key(const Series& series, const SweepPoint& point) {
  ScheduleKey key;
  std::uint64_t ident = 14695981039346656037ULL;
  if (series.builder) {
    ident = fnv_mix(ident, std::uint64_t{1});
    ident = fnv_mix(ident, series.name);
    ident = fnv_mix(ident, point.workload.name);
  } else {
    ident = fnv_mix(ident, std::uint64_t{2});
    ident = fnv_mix(ident, series.algorithm);
  }
  key.ident = ident;
  key.elements = point.workload.elements;
  key.nodes = point.nodes;
  key.group_size = point.group_size;
  key.wavelengths = point.wavelengths;
  return key;
}

coll::Schedule build_schedule(const Series& series, const SweepPoint& point) {
  if (series.builder) return series.builder(point);
  coll::AllreduceParams params;
  params.num_nodes = point.nodes;
  params.elements = point.workload.elements;
  params.group_size = point.group_size;
  params.wavelengths = point.wavelengths;
  return coll::Registry::instance().build(series.algorithm, params);
}

/// The key every element count of one (series, N, m, w) structure shares.
ScheduleKey structural_key(ScheduleKey key) {
  key.elements = 0;
  return key;
}

/// Schedule reuse across grid points (see ScheduleCacheMode).
///
/// Exact tier: points sharing (series, elements, N, m, w) — e.g. one
/// algorithm run on two backends — build once; concurrent requesters wait
/// on the first builder's future, and build failures propagate to every
/// waiter.
///
/// Structural tier: the first registry build (the pioneer) of a
/// (series, N, m, w) structure is offered to the structure's other element
/// counts. A sibling copies it and rescales the transfer counts
/// (coll::Schedule::rescale_elements) when the base is full-vector;
/// chunked bases and failed pioneer builds fall back to a full build, so
/// patching can only save work, never change results or surface different
/// errors.
///
/// Lifetime: the cache is built from the expanded grid, so it knows how
/// many points will ask for each exact key and how many exact keys will
/// consult each structure. An exact entry is erased when its last point
/// has asked (callers keep their own SchedulePtr while they run it). A
/// structural entry is erased after its last sibling has consulted it, or
/// as soon as its pioneer fails or turns out not to be full-vector,
/// because such a base can never be patched. A sweep therefore holds a
/// schedule only while a grid point still needs it.
class ScheduleCache {
 public:
  ScheduleCache(const SweepSpec& spec, const std::vector<SweepPoint>& points)
      : mode_(spec.schedule_cache) {
    if (mode_ == ScheduleCacheMode::kOff) return;
    for (const SweepPoint& point : points) {
      const Series& series = spec.series[point.series_index];
      const ScheduleKey key = schedule_key(series, point);
      if (++memo_[key].uses_left == 1 && !series.builder) {
        ++structural_[structural_key(key)].uses_left;
      }
    }
    // A structure built at one element count has no sibling to serve.
    std::erase_if(structural_,
                  [](const auto& entry) { return entry.second.uses_left < 2; });
  }

  SchedulePtr get_or_build(const Series& series, const SweepPoint& point) {
    if (mode_ == ScheduleCacheMode::kOff) {
      builds_.fetch_add(1, std::memory_order_relaxed);
      const prof::ScopedTimer timer("sweep.schedule.build");
      return std::make_shared<const coll::Schedule>(
          build_schedule(series, point));
    }

    const ScheduleKey key = schedule_key(series, point);
    std::promise<SchedulePtr> promise;
    std::shared_future<SchedulePtr> future;
    std::shared_future<SchedulePtr> sibling;  // same structure, other elements
    bool build_here = false;
    bool pioneer = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = memo_.find(key);
      require(it != memo_.end(), "ScheduleCache: point outside the grid");
      Entry& entry = it->second;
      if (entry.schedule.valid()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        entry.schedule = promise.get_future().share();
        build_here = true;
        const auto sit = series.builder ? structural_.end()
                                        : structural_.find(structural_key(key));
        if (sit != structural_.end()) {
          if (sit->second.schedule.valid()) {
            sibling = sit->second.schedule;
          } else {
            sit->second.schedule = entry.schedule;
            pioneer = true;
          }
          if (--sit->second.uses_left == 0) structural_.erase(sit);
        }
      }
      future = entry.schedule;
      if (--entry.uses_left == 0) memo_.erase(it);
    }
    if (build_here) {
      try {
        SchedulePtr schedule = materialize(series, point, sibling);
        if (pioneer && !schedule->full_vector()) drop_structural(key);
        promise.set_value(std::move(schedule));
      } catch (...) {
        if (pioneer) drop_structural(key);
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  /// Adds this run's build/patch/hit totals to `counters` (when set).
  void flush_counters(obs::Counters* counters) const {
    if (counters == nullptr) return;
    counters->add("sweep.schedule.builds",
                  builds_.load(std::memory_order_relaxed));
    counters->add("sweep.schedule.patches",
                  patches_.load(std::memory_order_relaxed));
    counters->add("sweep.schedule.hits",
                  hits_.load(std::memory_order_relaxed));
  }

 private:
  /// A cached (or in-flight) build and the requests still to come for it.
  struct Entry {
    std::shared_future<SchedulePtr> schedule;
    std::size_t uses_left = 0;
  };

  /// Forgets a pioneer that cannot serve as a patch base; siblings that
  /// consult the structure afterwards build from scratch.
  void drop_structural(const ScheduleKey& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    structural_.erase(structural_key(key));
  }

  SchedulePtr materialize(const Series& series, const SweepPoint& point,
                          const std::shared_future<SchedulePtr>& sibling) {
    if (sibling.valid()) {
      SchedulePtr base;
      try {
        base = sibling.get();
      } catch (...) {
        // The pioneer build of this structure failed at its element count;
        // ours might still be feasible — rebuild from scratch below.
        base = nullptr;
      }
      if (base != nullptr && base->full_vector()) {
        patches_.fetch_add(1, std::memory_order_relaxed);
        const prof::ScopedTimer timer("sweep.schedule.patch");
        auto patched = std::make_shared<coll::Schedule>(*base);
        patched->rescale_elements(point.workload.elements);
        return patched;
      }
    }
    builds_.fetch_add(1, std::memory_order_relaxed);
    const prof::ScopedTimer timer("sweep.schedule.build");
    return std::make_shared<const coll::Schedule>(
        build_schedule(series, point));
  }

  ScheduleCacheMode mode_;
  std::mutex mutex_;
  /// Exact (series, elements, N, m, w) keys; uses_left counts grid points.
  std::unordered_map<ScheduleKey, Entry, ScheduleKeyHash> memo_;
  /// Element-agnostic keys of registry builds; uses_left counts the exact
  /// keys still to consult the entry.
  std::unordered_map<ScheduleKey, Entry, ScheduleKeyHash> structural_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> patches_{0};
  std::atomic<std::uint64_t> hits_{0};
};

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return thread_count_from_env("WRHT_SWEEP_THREADS", hw);
}

std::vector<SweepPoint> expand_grid(const SweepSpec& spec) {
  std::vector<SweepPoint> points;
  points.reserve(spec.workloads.size() * spec.nodes.size() *
                 spec.wavelengths.size() * spec.series.size());
  for (const Workload& workload : spec.workloads) {
    for (const std::uint32_t nodes : spec.nodes) {
      for (const std::uint32_t wavelengths : spec.wavelengths) {
        for (std::size_t s = 0; s < spec.series.size(); ++s) {
          const Series& series = spec.series[s];
          SweepPoint point;
          point.workload = workload;
          point.nodes = nodes;
          point.wavelengths = wavelengths;
          point.series_index = s;
          point.series = series.name;
          point.group_size = series.group_size_fn ? series.group_size_fn(point)
                                                  : series.group_size;
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

/// Serializes concurrent workers' span/counter emission into one shared
/// downstream sink (TraceSink implementations are single-threaded).
class LockedTraceSink final : public obs::TraceSink {
 public:
  explicit LockedTraceSink(obs::TraceSink& sink) : sink_(sink) {}
  void span(const obs::TraceSpan& s) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    sink_.span(s);
  }
  void counter(const obs::CounterSample& s) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    sink_.counter(s);
  }

 private:
  std::mutex mutex_;
  obs::TraceSink& sink_;
};

SweepRow run_point(const SweepSpec& spec, const SweepPoint& point,
                   ScheduleCache& cache, obs::TraceSink* trace,
                   std::uint32_t track) {
  const Series& series = spec.series[point.series_index];
  const SchedulePtr schedule = cache.get_or_build(series, point);

  net::BackendConfig config = spec.config;
  config.num_nodes = point.nodes;
  config.wavelengths = point.wavelengths;
  config.rng_seed = point_seed(spec.config.rng_seed, point);
  if (series.configure) series.configure(point, config);

  const std::unique_ptr<net::Backend> backend =
      net::BackendRegistry::instance().create(series.backend, config);

  obs::Counters local;
  obs::Probe probe;
  probe.counters = &local;
  probe.trace = trace;
  probe.track = track;
  SweepRow row;
  row.point = point;
  row.report = backend->execute(*schedule, probe);
  row.report.add_counters(local);
  if (spec.counters != nullptr) spec.counters->merge(local);
  return row;
}

/// Labels the worker tracks 0..count-1 "sweep-worker-<k>" when the
/// spec's sink is a ChromeTraceSink, so the exported trace names its
/// lanes after the pool instead of raw tids.
void name_worker_tracks(obs::TraceSink* sink, unsigned count) {
  auto* chrome = dynamic_cast<obs::ChromeTraceSink*>(sink);
  if (chrome == nullptr) return;
  for (unsigned k = 0; k < count; ++k) {
    chrome->set_track_name(k, "sweep-worker-" + std::to_string(k));
  }
}

}  // namespace

void ensure_initialized() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::register_wrht_algorithm();
    net::register_builtin_backends();
  });
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(resolve_threads(threads)) {}

std::vector<SweepRow> SweepRunner::run(const SweepSpec& spec) const {
  ensure_initialized();
  require(!spec.workloads.empty(), "SweepRunner: no workloads");
  require(!spec.nodes.empty(), "SweepRunner: no node counts");
  require(!spec.wavelengths.empty(), "SweepRunner: no wavelength budgets");
  require(!spec.series.empty(), "SweepRunner: no series");

  const std::vector<SweepPoint> points = expand_grid(spec);
  std::vector<SweepRow> rows(points.size());
  ScheduleCache cache(spec, points);

  std::optional<LockedTraceSink> locked;
  if (spec.trace != nullptr) locked.emplace(*spec.trace);
  obs::TraceSink* trace = locked ? &*locked : nullptr;

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, points.size()));
  if (workers <= 1) {
    // Same phase accounting as the pooled path so thread-efficiency
    // figures exist (and read ~1) for single-threaded runs.
    const prof::ScopedTimer wall("sweep.worker.wall");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const prof::ScopedTimer busy("sweep.worker.busy");
      rows[i] = run_point(spec, points[i], cache, trace, 0);
    }
    cache.flush_counters(spec.counters);
    name_worker_tracks(spec.trace, 1);
    return rows;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&](unsigned id) {
    // wall covers the worker's whole life, busy only run_point: the merged
    // busy/wall ratio is the pool efficiency WRHT_SWEEP_THREADS bought.
    const prof::ScopedTimer wall("sweep.worker.wall");
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      try {
        const prof::ScopedTimer busy("sweep.worker.busy");
        rows[i] = run_point(spec, points[i], cache, trace, id);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  cache.flush_counters(spec.counters);
  name_worker_tracks(spec.trace, workers);
  return rows;
}

}  // namespace wrht::exp
