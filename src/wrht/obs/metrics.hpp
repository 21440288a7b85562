// Typed time-series metrics for long-lived service simulations.
//
// obs::Counters answers "how much happened over the whole run"; a
// multi-tenant service also needs "what did the fabric look like at
// t = 0.3 s" — queue depth, wavelengths in use, fragmentation, SLO burn
// over virtual time, because transient contention (not steady-state
// averages) is what separates admission policies. MetricsRegistry holds
// typed instruments — monotonic counters, gauges, and fixed-bucket
// log-scale histograms — and sample() snapshots
// every instrument's current value into its own TimeSeries ring buffer at
// whatever virtual-time cadence the caller drives. Exports (CSV long
// format, wrht-metrics-1 JSON) are deterministic: instruments iterate in
// name order, numbers print with fixed precision.
//
// Not thread-safe by design: the registry belongs to one simulation loop
// (svc::FabricService drives it single-threaded). Sweep workers that need
// a shared thread-safe sink record through obs::Counters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "wrht/common/units.hpp"

namespace wrht::obs {

/// Fixed log-scale bucket layout: bucket i covers [lo * growth^i,
/// lo * growth^(i+1)); values below lo land in bucket 0, values at or past
/// the top boundary land in the last bucket.
struct HistogramSpec {
  double lo = 1e-6;
  double growth = 2.0;
  std::uint32_t buckets = 64;

  friend bool operator==(const HistogramSpec&, const HistogramSpec&) = default;
};

/// Fixed-bucket log-scale histogram.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec = {});

  void observe(double value);

  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return counts_;
  }
  /// Lower edge of bucket `i` (lo * growth^i).
  [[nodiscard]] double bucket_lo(std::uint32_t i) const;
  /// Upper edge of bucket `i`; the last bucket's edge is its nominal
  /// boundary even though it also absorbs overflow.
  [[nodiscard]] double bucket_hi(std::uint32_t i) const;

  /// The q-quantile (q in [0, 1]) estimated as the upper edge of the
  /// bucket holding the q-th observation — a deterministic upper bound
  /// with relative error bounded by the bucket growth factor. Requires a
  /// non-empty histogram.
  [[nodiscard]] double quantile(double q) const;

 private:
  HistogramSpec spec_;
  double inv_log_growth_ = 1.0;  // cached for observe(); spec_ is fixed
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

struct TimeSeriesPoint {
  Seconds time{0.0};
  double value = 0.0;
};

/// Fixed-capacity ring buffer of (virtual time, value) samples. When full,
/// push() overwrites the oldest sample and counts it in dropped() — a
/// bounded-memory service can run forever and keep the trailing window.
/// Storage grows geometrically up to the capacity instead of being
/// allocated up front: a registry holds one series per instrument, and
/// short runs would otherwise page-fault capacity * 16 bytes per
/// instrument before the first sample.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = 4096);

  void push(Seconds time, double value);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// i-th retained sample, oldest first.
  [[nodiscard]] const TimeSeriesPoint& operator[](std::size_t i) const;
  /// Retained samples, oldest first (a copy; the ring stays packed).
  [[nodiscard]] std::vector<TimeSeriesPoint> points() const;

 private:
  std::vector<TimeSeriesPoint> points_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string to_string(InstrumentKind kind);

class MetricsRegistry {
 public:
  using Id = std::uint32_t;

  struct Options {
    /// Ring capacity of every instrument's TimeSeries (the sampling
    /// cadence — the series resolution — is the caller's, who drives
    /// sample()).
    std::size_t series_capacity = 4096;
  };

  MetricsRegistry();
  explicit MetricsRegistry(Options options);

  /// Registers (or finds) an instrument. Re-requesting a name with the
  /// same kind returns the existing id; a kind clash throws
  /// InvalidArgument.
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  Id histogram(const std::string& name, HistogramSpec spec = {});

  /// Monotonic: a negative delta throws.
  void add(Id id, double delta = 1.0);
  /// Gauges move freely in both directions.
  void set(Id id, double value);
  /// Records one observation into a histogram instrument.
  void observe(Id id, double value);

  /// Counter/gauge current value; a histogram reads as its observation
  /// count.
  [[nodiscard]] double value(Id id) const;
  [[nodiscard]] const TimeSeries& series(Id id) const;
  /// The histogram behind a kHistogram instrument; throws on other kinds.
  [[nodiscard]] const Histogram& histogram_at(Id id) const;

  [[nodiscard]] std::size_t size() const { return instruments_.size(); }
  [[nodiscard]] const std::string& name(Id id) const;
  [[nodiscard]] InstrumentKind kind(Id id) const;
  [[nodiscard]] std::optional<Id> find(const std::string& name) const;

  /// Appends every instrument's current value to its TimeSeries, stamped
  /// `now`. The caller owns the cadence; calling on a virtual-time grid
  /// makes the series a fixed-resolution signal.
  void sample(Seconds now);

  /// Long-format CSV: metric,kind,t_s,value — one row per retained sample
  /// of every instrument, instruments in name order.
  void write_series_csv(const std::string& path) const;

  /// Deterministic JSON ("wrht-metrics-1"): every instrument's kind,
  /// current value, histogram buckets, and retained samples.
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;

 private:
  struct Instrument {
    std::string name;
    InstrumentKind kind = InstrumentKind::kCounter;
    double value = 0.0;  // counter/gauge current value
    std::optional<Histogram> hist;
    TimeSeries series;
  };

  Id intern(const std::string& name, InstrumentKind kind,
            const HistogramSpec* spec);
  const Instrument& at(Id id) const;
  Instrument& at(Id id);

  Options options_;
  std::vector<Instrument> instruments_;
};

}  // namespace wrht::obs
