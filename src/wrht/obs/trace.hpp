// Step-level trace instrumentation for the simulators.
//
// TraceSink is the single interface every timing-producing layer emits
// into: the optical ring posts one span per communication step with child
// spans per RWA round, the electrical simulators post one span per step,
// and the data-level executor posts logical-time spans. The default is no
// sink at all — instrumentation sites hold a possibly-null Probe and every
// emission is guarded by one pointer test, so a run without observers costs
// nothing but untaken branches (wrht_perf's probe_overhead.ratio gates the
// price of attaching a sink and counters against that unobserved run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wrht/common/units.hpp"
#include "wrht/obs/counters.hpp"

namespace wrht::obs {

class OccupancySampler;  // obs/occupancy.hpp
class TransferLog;       // obs/transfer_log.hpp

/// One complete span on the run timeline. `track` separates concurrent
/// timelines (e.g. several network executions in one trace file); spans on
/// the same track nest by time containment, so a step span naturally
/// parents its round spans.
struct TraceSpan {
  std::string name;      ///< step label / round id
  std::string category;  ///< "step", "round", "flow-step", "packet-step", ...
  Seconds start{0.0};
  Seconds duration{0.0};
  std::uint32_t track = 0;
  /// Key/value annotations (rounds, wavelengths, flows, link load, ...).
  std::vector<std::pair<std::string, std::string>> args;
  /// Numeric annotations, emitted as JSON numbers after `args`; the
  /// value is formatted once at write() time instead of being
  /// stringified by the emitter.
  std::vector<std::pair<std::string, double>> num_args;
};

/// One sample on a numeric counter track (wavelengths in use, link load,
/// active flows, ...). Renders as a Perfetto "C"-phase event: the value
/// holds from `time` until the track's next sample.
struct CounterSample {
  std::string name;  ///< counter track name, e.g. "wavelengths in use"
  Seconds time{0.0};
  double value = 0.0;
  std::uint32_t track = 0;
};

/// Receiver of trace spans. Implementations must tolerate spans arriving
/// out of global time order across tracks (each simulator emits its own
/// track in order).
class TraceSink {
 public:
  virtual ~TraceSink();
  virtual void span(const TraceSpan& span) = 0;
  /// Counter samples are optional for sinks; the default discards them so
  /// span-only sinks (and the pre-counter tests) stay unchanged.
  virtual void counter(const CounterSample& sample) { (void)sample; }
};

/// Collects spans in memory; the unit tests' sink of choice.
class MemoryTraceSink final : public TraceSink {
 public:
  void span(const TraceSpan& s) override { spans_.push_back(s); }
  void counter(const CounterSample& s) override { counters_.push_back(s); }
  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<CounterSample>& counter_samples() const {
    return counters_;
  }
  void clear() {
    spans_.clear();
    counters_.clear();
  }

 private:
  std::vector<TraceSpan> spans_;
  std::vector<CounterSample> counters_;
};

/// The observation bundle instrumented code carries; every sink is null
/// unless attached. `track` is the timeline spans are tagged with, so
/// callers can lay several executions side by side in one trace.
struct Probe {
  TraceSink* trace = nullptr;
  Counters* counters = nullptr;
  std::uint32_t track = 0;
  /// Resource-occupancy sampler (obs/occupancy.hpp).
  OccupancySampler* occupancy = nullptr;
  /// Transfer-level timeline for causal blame attribution
  /// (obs/transfer_log.hpp, consumed by wrht::diag).
  TransferLog* transfers = nullptr;

  [[nodiscard]] bool active() const {
    return trace || counters || occupancy || transfers;
  }

  /// Emits `s` (stamped with this probe's track) if a sink is attached.
  void span(TraceSpan s) const {
    if (trace == nullptr) return;
    s.track = track;
    trace->span(s);
  }

  /// Emits one counter-track sample if a sink is attached.
  void counter_sample(const std::string& name, Seconds time,
                      double value) const {
    if (trace == nullptr) return;
    trace->counter(CounterSample{name, time, value, track});
  }

  void count(const std::string& name, std::uint64_t delta = 1) const {
    if (counters != nullptr) counters->add(name, delta);
  }

  void count_max(const std::string& name, std::uint64_t value) const {
    if (counters != nullptr) counters->observe_max(name, value);
  }
};

}  // namespace wrht::obs
