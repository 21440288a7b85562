// Host-side (wall-clock) profiling of the simulator itself.
//
// wrht::obs observes *simulated* time — where the modelled network spends
// its seconds. wrht::prof observes *wall-clock* time — where this process
// spends its seconds while computing those models: schedule construction,
// RWA solves, engine execution, verification, analysis, CSV/JSON writes,
// and the sweep worker pool's busy/idle split.
//
// The design discipline mirrors obs: null by default. No ProfRegistry is
// installed unless a tool opts in, every instrumentation site is a
// ScopedTimer whose constructor performs exactly one relaxed pointer load
// when profiling is off, and nothing else happens — no string copies, no
// clock reads, no allocation (wrht_perf's scoped_timer_off.wall_s gates
// this). When a registry is installed, each thread accumulates into its
// own lock-free cells (relaxed atomics on pre-resolved pointers; the only
// lock is taken once per (thread, phase) on first use) and the registry
// merges the per-thread totals at report time.
//
// Typical use:
//
//     prof::ProfRegistry registry;
//     {
//       const prof::ScopedProfiling on(registry);   // install as current
//       run_benchmark();                            // timers now record
//     }
//     for (const auto& [phase, t] : registry.phase_totals())
//       std::printf("%-24s %8llu calls  %.3f s\n", phase.c_str(),
//                   (unsigned long long)t.calls, t.seconds);
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wrht::prof {

/// Aggregated wall-clock account of one phase: how often it ran and the
/// inclusive time spent inside it. Nested timers are inclusive, so a child
/// phase's seconds never exceed its enclosing phase's seconds (the
/// nesting invariant test_prof pins).
struct PhaseTotals {
  std::uint64_t calls = 0;
  double seconds = 0.0;

  PhaseTotals& operator+=(const PhaseTotals& o) {
    calls += o.calls;
    seconds += o.seconds;
    return *this;
  }
};

/// Collects phase timings across every thread that runs a ScopedTimer
/// while this registry is installed (ScopedProfiling). Thread-safe:
/// workers accumulate concurrently; snapshots may be taken at any time
/// and see each cell's latest published value.
class ProfRegistry {
 public:
  ProfRegistry();
  ~ProfRegistry();
  ProfRegistry(const ProfRegistry&) = delete;
  ProfRegistry& operator=(const ProfRegistry&) = delete;

  /// The process-current registry, or nullptr when profiling is off (the
  /// default). This is the one pointer every instrumentation site tests.
  [[nodiscard]] static ProfRegistry* current();

  /// Phase totals merged across all threads, name-ordered. Deterministic
  /// for a deterministic workload: totals are independent of how the work
  /// was spread over threads.
  [[nodiscard]] std::map<std::string, PhaseTotals> phase_totals() const;

 private:
  friend class ScopedTimer;
  friend class ScopedProfiling;

  /// One phase's accumulator. Stable address (deque storage) so threads
  /// cache the pointer and accumulate without any lock.
  struct PhaseCell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  struct ThreadRecord;
  struct Tls;  ///< per-thread (registry, phase) -> cell cache; prof.cpp

  /// The calling thread's cell for `phase`, registering the thread and/or
  /// the phase on first use (the only locked path).
  PhaseCell* cell(std::string_view phase);
  ThreadRecord* this_thread_record();

  const std::uint64_t epoch_;  ///< disambiguates reused addresses in TLS
  mutable std::mutex mutex_;   ///< guards records_ and each record's map
  std::vector<std::unique_ptr<ThreadRecord>> records_;
};

/// Installs a registry as ProfRegistry::current() for its scope and
/// restores the previous one (usually nullptr) on destruction.
class ScopedProfiling {
 public:
  explicit ScopedProfiling(ProfRegistry& registry);
  ~ScopedProfiling();
  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;

 private:
  ProfRegistry* previous_;
};

/// Times one phase from construction to destruction. When no registry is
/// installed the constructor is a single pointer test and the destructor
/// a null check — the off-by-default zero-overhead contract.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view phase) {
    ProfRegistry* registry = ProfRegistry::current();
    if (registry == nullptr) return;
    cell_ = registry->cell(phase);
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedTimer() {
    if (cell_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    cell_->nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    cell_->calls.fetch_add(1, std::memory_order_relaxed);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfRegistry::PhaseCell* cell_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set size of this process in bytes (Linux VmHWM, falling
/// back to getrusage); 0 when the platform exposes neither.
[[nodiscard]] std::size_t peak_rss_bytes();

}  // namespace wrht::prof
