#include "wrht/prof/prof.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <unordered_map>

namespace wrht::prof {

namespace {

std::atomic<ProfRegistry*> g_current{nullptr};
std::atomic<std::uint64_t> g_epoch{0};

}  // namespace

/// One thread's view of the registry: phase name -> stable cell. The map
/// itself is guarded by the registry mutex (snapshots walk it from other
/// threads); the cells are accumulated into lock-free.
struct ProfRegistry::ThreadRecord {
  std::map<std::string, PhaseCell*> cells;
  std::deque<PhaseCell> storage;
};

/// Thread-local fast path: once a (registry, phase) pair has been
/// resolved, later lookups touch only this thread's own cache — no lock,
/// no shared state. The epoch guards against a destroyed registry's
/// address being reused by a new one.
struct ProfRegistry::Tls {
  std::uint64_t epoch = 0;
  ThreadRecord* record = nullptr;
  std::unordered_map<std::string, PhaseCell*> cells;

  static Tls& cache() {
    thread_local Tls instance;
    return instance;
  }
};

ProfRegistry::ProfRegistry()
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

ProfRegistry::~ProfRegistry() {
  // Safety net for registries destroyed while still installed; the normal
  // path is ScopedProfiling restoring the previous registry first.
  ProfRegistry* self = this;
  g_current.compare_exchange_strong(self, nullptr);
}

ProfRegistry* ProfRegistry::current() {
  return g_current.load(std::memory_order_acquire);
}

ProfRegistry::ThreadRecord* ProfRegistry::this_thread_record() {
  Tls& cache = Tls::cache();
  if (cache.epoch != epoch_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::make_unique<ThreadRecord>());
    cache.epoch = epoch_;
    cache.record = records_.back().get();
    cache.cells.clear();
  }
  return cache.record;
}

ProfRegistry::PhaseCell* ProfRegistry::cell(std::string_view phase) {
  ThreadRecord* record = this_thread_record();
  Tls& cache = Tls::cache();
  const std::string name(phase);
  const auto it = cache.cells.find(name);
  if (it != cache.cells.end()) return it->second;
  PhaseCell* resolved = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = record->cells.find(name);
    if (found != record->cells.end()) {
      resolved = found->second;
    } else {
      record->storage.emplace_back();
      resolved = &record->storage.back();
      record->cells.emplace(name, resolved);
    }
  }
  cache.cells.emplace(name, resolved);
  return resolved;
}

std::map<std::string, PhaseTotals> ProfRegistry::phase_totals() const {
  std::map<std::string, PhaseTotals> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& record : records_) {
    for (const auto& [name, cell] : record->cells) {
      PhaseTotals& totals = out[name];
      totals.calls += cell->calls.load(std::memory_order_relaxed);
      totals.seconds +=
          static_cast<double>(cell->nanos.load(std::memory_order_relaxed)) *
          1e-9;
    }
  }
  return out;
}

ScopedProfiling::ScopedProfiling(ProfRegistry& registry)
    : previous_(g_current.exchange(&registry, std::memory_order_acq_rel)) {}

ScopedProfiling::~ScopedProfiling() {
  g_current.store(previous_, std::memory_order_release);
}

std::size_t peak_rss_bytes() {
  // VmHWM is the kernel's high-watermark of the resident set; parse it
  // directly so the figure reflects this process alone.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
    }
    std::fclose(status);
    if (kb > 0) return kb * 1024;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // Linux: kB
  }
  return 0;
}

}  // namespace wrht::prof
