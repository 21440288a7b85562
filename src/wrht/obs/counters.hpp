// Named counter registry for simulator telemetry.
//
// Every instrumented layer (event kernel, optical ring, electrical fat
// tree, packet model) accumulates into one Counters
// instance handed in through obs::Probe: wavelengths used per round,
// rounds per step, reconfiguration charges under either accounting mode,
// multi-round splits, fair-share bottleneck links, events fired. Counters
// are ordered (std::map) so snapshots and CSV dumps are deterministic.
//
// Thread-safe: every method takes an internal mutex, so concurrent
// simulator runs (exp::SweepRunner workers, the process-wide
// bench::metrics() registry) may share one instance. Each counter has one
// of two kinds — it accumulates (add) or high-watermarks (observe_max) —
// and merge() honours it: additive counters sum, watermark counters take
// the max, so merging per-run registries is equivalent to having observed
// one combined run.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace wrht::obs {

class Counters {
 public:
  Counters() = default;
  Counters(const Counters&) = delete;
  Counters& operator=(const Counters&) = delete;

  /// Adds `delta` to `name`, creating the counter at zero first.
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Raises `name` to `value` if `value` is larger (high-watermark style,
  /// e.g. the peak wavelength count or link load across a run).
  void observe_max(const std::string& name, std::uint64_t value);

  /// Current value; absent counters read as zero.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Name-ordered copy of every counter (a copy, so iteration needs no
  /// lock against concurrent writers).
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;

  /// Folds `other` into this registry: additive counters sum, watermark
  /// counters take the max.
  void merge(const Counters& other);

  void clear();

  /// Writes `counter,value` rows (header included) to `path`.
  void write_csv(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kAdd, kMax };
  struct Entry {
    std::uint64_t value = 0;
    Kind kind = Kind::kAdd;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> values_;
};

}  // namespace wrht::obs
