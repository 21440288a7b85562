// Chrome trace-event JSON exporter.
//
// ChromeTraceSink accumulates spans and counter samples and serializes
// them in the Trace Event Format that chrome://tracing and Perfetto's
// legacy importer load directly: spans as "X" complete events, counter
// samples as "C" counter events (Perfetto renders those as numeric tracks
// under the same process), flow arrows as "s"/"f" flow-event pairs that
// the viewer draws between the spans they bind to. Field order inside
// every event object is fixed (name, cat, ph, ts, dur, pid, tid, args) and
// events are emitted in arrival order — all spans first, then counter
// samples, then flow pairs — so output is byte-stable for a deterministic
// run; the golden test relies on that.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "wrht/obs/trace.hpp"

namespace wrht::obs {

/// One causal arrow between two points on the trace, rendered by the
/// viewer as a flow line from the span enclosing (start, start_track) to
/// the span enclosing (finish, finish_track). The ids are assigned at
/// add_flow() time, so callers only describe the endpoints.
struct FlowArrow {
  std::string name;      ///< flow label, e.g. "critical path"
  std::string category;  ///< "blame", "grant", ...
  Seconds start{0.0};
  std::uint32_t start_track = 0;
  Seconds finish{0.0};
  std::uint32_t finish_track = 0;
};

class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::string process_name = "wrht");

  void span(const TraceSpan& s) override;
  void counter(const CounterSample& s) override;
  // Rvalue overloads so per-event callers (the FabricService telemetry
  // hooks construct a temporary per sample) move their strings in instead
  // of re-allocating them.
  void span(TraceSpan&& s) { spans_.push_back(std::move(s)); }
  void counter(CounterSample&& s) { counters_.push_back(std::move(s)); }

  /// Pre-sizes the span/counter storage; a service that knows its job
  /// count can avoid mid-run reallocation.
  void reserve(std::size_t spans, std::size_t counters) {
    spans_.reserve(spans);
    counters_.reserve(counters);
  }

  /// Labels `track` in the viewer (emitted as thread_name metadata).
  void set_track_name(std::uint32_t track, const std::string& name);

  /// Records a causal arrow; serialized as an "s"/"f" flow-event pair with
  /// a shared id in insertion order.
  void add_flow(FlowArrow arrow) { flows_.push_back(std::move(arrow)); }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  /// Serializes the whole trace through json::Writer; `ts`/`dur` are
  /// microseconds printed as %.6f (Writer::fixed), counter values as
  /// integers when whole and %g otherwise, whatever the stream's locale.
  void write(std::ostream& out) const;

  /// write() to `path`; throws wrht::Error if the file cannot be opened.
  void write_file(const std::string& path) const;

  /// json::escape, for callers that reach the escaper through the sink.
  [[nodiscard]] static std::string escape(const std::string& s);

 private:
  std::string process_name_;
  std::vector<TraceSpan> spans_;
  std::vector<CounterSample> counters_;
  std::vector<FlowArrow> flows_;
  std::map<std::uint32_t, std::string> track_names_;
};

}  // namespace wrht::obs
