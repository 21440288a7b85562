#include "wrht/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "wrht/common/csv.hpp"
#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::obs {

Histogram::Histogram(HistogramSpec spec)
    : spec_(spec), inv_log_growth_(1.0 / std::log(spec.growth)) {
  require(spec_.lo > 0.0, "Histogram: lo must be positive");
  require(spec_.growth > 1.0, "Histogram: growth must exceed 1");
  require(spec_.buckets >= 1, "Histogram: need at least one bucket");
  counts_.assign(spec_.buckets, 0);
}

void Histogram::observe(double value) {
  std::size_t bucket = 0;
  if (value >= spec_.lo) {
    // log-ratio bucket index; clamped so overflow lands in the last bucket.
    const double h = std::log(value / spec_.lo) * inv_log_growth_;
    bucket = std::min(static_cast<std::size_t>(h),
                      static_cast<std::size_t>(spec_.buckets - 1));
  }
  ++counts_[bucket];
  ++count_;
  sum_ += value;
}

double Histogram::bucket_lo(std::uint32_t i) const {
  require(i < spec_.buckets, "Histogram: bucket index out of range");
  return spec_.lo * std::pow(spec_.growth, static_cast<double>(i));
}

double Histogram::bucket_hi(std::uint32_t i) const {
  require(i < spec_.buckets, "Histogram: bucket index out of range");
  return spec_.lo * std::pow(spec_.growth, static_cast<double>(i) + 1.0);
}

double Histogram::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0, "Histogram: quantile must be in [0, 1]");
  require(count_ > 0, "Histogram: quantile of an empty histogram");
  // Rank of the q-th observation (1-based, ceiling — the classic
  // "smallest x with CDF(x) >= q").
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < spec_.buckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return bucket_hi(i);
  }
  return bucket_hi(spec_.buckets - 1);
}

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "TimeSeries: capacity must be >= 1");
}

void TimeSeries::push(Seconds time, double value) {
  if (size_ == points_.size() && points_.size() < capacity_) {
    // Grow toward the capacity. Until the ring is full head_ stays 0, so
    // appended storage extends the logical sequence in place.
    points_.resize(std::min(capacity_, std::max<std::size_t>(8, 2 * size_)));
  }
  if (size_ < points_.size()) {
    std::size_t slot = head_ + size_;
    if (slot >= points_.size()) slot -= points_.size();
    points_[slot] = TimeSeriesPoint{time, value};
    ++size_;
    return;
  }
  // Full: the oldest sample's slot becomes the newest.
  points_[head_] = TimeSeriesPoint{time, value};
  if (++head_ == points_.size()) head_ = 0;
  ++dropped_;
}

const TimeSeriesPoint& TimeSeries::operator[](std::size_t i) const {
  require(i < size_, "TimeSeries: sample index out of range");
  return points_[(head_ + i) % points_.size()];
}

std::vector<TimeSeriesPoint> TimeSeries::points() const {
  std::vector<TimeSeriesPoint> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
  return out;
}

std::string to_string(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter:
      return "counter";
    case InstrumentKind::kGauge:
      return "gauge";
    case InstrumentKind::kHistogram:
      return "histogram";
  }
  throw InvalidArgument("unknown InstrumentKind");
}

MetricsRegistry::MetricsRegistry() : MetricsRegistry(Options{}) {}

MetricsRegistry::MetricsRegistry(Options options) : options_(options) {
  require(options_.series_capacity >= 1,
          "MetricsRegistry: series_capacity must be >= 1");
}

MetricsRegistry::Id MetricsRegistry::intern(const std::string& name,
                                            InstrumentKind kind,
                                            const HistogramSpec* spec) {
  require(!name.empty(), "MetricsRegistry: empty instrument name");
  for (Id id = 0; id < instruments_.size(); ++id) {
    if (instruments_[id].name != name) continue;
    if (instruments_[id].kind != kind) {
      throw InvalidArgument("MetricsRegistry: instrument '" + name +
                            "' already registered as a " +
                            obs::to_string(instruments_[id].kind));
    }
    if (spec != nullptr && !(instruments_[id].hist->spec() == *spec)) {
      throw InvalidArgument("MetricsRegistry: histogram '" + name +
                            "' re-registered with a different bucket spec");
    }
    return id;
  }
  Instrument inst{name, kind, 0.0, std::nullopt,
                  TimeSeries(options_.series_capacity)};
  if (spec != nullptr) inst.hist.emplace(*spec);
  instruments_.push_back(std::move(inst));
  return static_cast<Id>(instruments_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return intern(name, InstrumentKind::kCounter, nullptr);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return intern(name, InstrumentKind::kGauge, nullptr);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name,
                                               HistogramSpec spec) {
  return intern(name, InstrumentKind::kHistogram, &spec);
}

// The accessors below sit on the FabricService hot path (every event hook
// and every sampler tick), so their computed messages are built only when
// a check fails.
const MetricsRegistry::Instrument& MetricsRegistry::at(Id id) const {
  require(id < instruments_.size(), "MetricsRegistry: unknown instrument id");
  return instruments_[id];
}

MetricsRegistry::Instrument& MetricsRegistry::at(Id id) {
  require(id < instruments_.size(), "MetricsRegistry: unknown instrument id");
  return instruments_[id];
}

void MetricsRegistry::add(Id id, double delta) {
  Instrument& inst = at(id);
  if (inst.kind != InstrumentKind::kCounter) {
    throw InvalidArgument("MetricsRegistry: add() on non-counter '" +
                          inst.name + "'");
  }
  if (delta < 0.0) {
    throw InvalidArgument("MetricsRegistry: counter '" + inst.name +
                          "' is monotonic");
  }
  inst.value += delta;
}

void MetricsRegistry::set(Id id, double value) {
  Instrument& inst = at(id);
  if (inst.kind != InstrumentKind::kGauge) {
    throw InvalidArgument("MetricsRegistry: set() on non-gauge '" +
                          inst.name + "'");
  }
  inst.value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  Instrument& inst = at(id);
  if (inst.kind != InstrumentKind::kHistogram) {
    throw InvalidArgument("MetricsRegistry: observe() on non-histogram '" +
                          inst.name + "'");
  }
  inst.hist->observe(value);
}

double MetricsRegistry::value(Id id) const {
  const Instrument& inst = at(id);
  if (inst.kind == InstrumentKind::kHistogram) {
    return static_cast<double>(inst.hist->count());
  }
  return inst.value;
}

const TimeSeries& MetricsRegistry::series(Id id) const { return at(id).series; }

const Histogram& MetricsRegistry::histogram_at(Id id) const {
  const Instrument& inst = at(id);
  if (inst.kind != InstrumentKind::kHistogram) {
    throw InvalidArgument("MetricsRegistry: '" + inst.name +
                          "' is not a histogram");
  }
  return *inst.hist;
}

const std::string& MetricsRegistry::name(Id id) const { return at(id).name; }

InstrumentKind MetricsRegistry::kind(Id id) const { return at(id).kind; }

std::optional<MetricsRegistry::Id> MetricsRegistry::find(
    const std::string& name) const {
  for (Id id = 0; id < instruments_.size(); ++id) {
    if (instruments_[id].name == name) return id;
  }
  return std::nullopt;
}

void MetricsRegistry::sample(Seconds now) {
  // Iterates the storage directly: this runs once per cadence tick for
  // every instrument, and the id-checked value() round-trip is measurable
  // at service-simulation rates.
  for (Instrument& inst : instruments_) {
    const double v = inst.kind == InstrumentKind::kHistogram
                         ? static_cast<double>(inst.hist->count())
                         : inst.value;
    inst.series.push(now, v);
  }
}

void MetricsRegistry::write_series_csv(const std::string& path) const {
  CsvWriter csv(path, {"metric", "kind", "t_s", "value"});
  // Name order, not registration order: deterministic regardless of which
  // code path registered first.
  std::vector<Id> order(instruments_.size());
  for (Id id = 0; id < instruments_.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [this](Id a, Id b) {
    return instruments_[a].name < instruments_[b].name;
  });
  for (const Id id : order) {
    const Instrument& inst = instruments_[id];
    const std::string kind_name = obs::to_string(inst.kind);
    for (std::size_t i = 0; i < inst.series.size(); ++i) {
      const TimeSeriesPoint& p = inst.series[i];
      csv.add_row({inst.name, kind_name, json::number(p.time.count(), 9),
                   json::number(p.value, 9)});
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::vector<Id> order(instruments_.size());
  for (Id id = 0; id < instruments_.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [this](Id a, Id b) {
    return instruments_[a].name < instruments_[b].name;
  });

  json::Writer w(out);
  w.raw("{\n  \"schema\": \"wrht-metrics-1\",\n  \"instruments\": [");
  bool first = true;
  for (const Id id : order) {
    const Instrument& inst = instruments_[id];
    w.raw(first ? "\n" : ",\n");
    first = false;
    w.raw("    {\"name\": \"").str(inst.name);
    w.raw("\", \"kind\": \"").raw(obs::to_string(inst.kind));
    w.raw("\", \"value\": ").number(value(id), 9);
    w.raw(", \"samples\": ").integer(inst.series.size());
    w.raw(", \"dropped\": ").integer(inst.series.dropped());
    if (inst.hist) {
      w.raw(", \"sum\": ").number(inst.hist->sum(), 9).raw(", \"buckets\": [");
      // Sparse: only non-empty buckets, as [index, count] pairs.
      bool first_bucket = true;
      const auto& counts = inst.hist->bucket_counts();
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0) continue;
        w.raw(first_bucket ? "[" : ", [").integer(b).raw(", ");
        w.integer(counts[b]).raw("]");
        first_bucket = false;
      }
      w.raw("]");
    }
    w.raw(", \"series\": [");
    for (std::size_t i = 0; i < inst.series.size(); ++i) {
      const TimeSeriesPoint& p = inst.series[i];
      w.raw(i == 0 ? "[" : ", [").number(p.time.count(), 9).raw(", ");
      w.number(p.value, 9).raw("]");
    }
    w.raw("]}");
  }
  w.raw("\n  ]\n}\n");
  w.flush();
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("MetricsRegistry: cannot open " + path);
  write_json(out);
}

}  // namespace wrht::obs
