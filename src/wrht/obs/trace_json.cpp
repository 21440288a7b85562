#include "wrht/obs/trace_json.hpp"

#include <cmath>
#include <fstream>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::obs {

ChromeTraceSink::ChromeTraceSink(std::string process_name)
    : process_name_(std::move(process_name)) {}

void ChromeTraceSink::span(const TraceSpan& s) { spans_.push_back(s); }

void ChromeTraceSink::counter(const CounterSample& s) {
  counters_.push_back(s);
}

void ChromeTraceSink::set_track_name(std::uint32_t track,
                                     const std::string& name) {
  track_names_[track] = name;
}

std::string ChromeTraceSink::escape(const std::string& s) {
  return json::escape(s);
}

void ChromeTraceSink::write(std::ostream& out) const {
  json::Writer w(out);
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  const auto sep = [&] {
    w.raw(first ? "\n" : ",\n");
    first = false;
  };
  // Fixed-precision microseconds: deterministic across runs and platforms.
  const auto us = [&w](Seconds t) { w.fixed(t.count() * 1e6, 6); };
  // Counter values: whole values inside long long's range print exactly
  // ("6"), everything else with %g, so the common whole-valued tracks stay
  // clean in the JSON.
  const auto value = [&w](double v) {
    if (v >= -0x1p63 && v < 0x1p63 && v == std::trunc(v)) {
      w.integer(static_cast<long long>(v));
    } else {
      w.number(v, 6);
    }
  };

  // Metadata first: process name, then the named tracks (track id order —
  // std::map keeps this stable).
  sep();
  w.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"")
      .str(process_name_)
      .raw("\"}}");
  for (const auto& [track, name] : track_names_) {
    sep();
    w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":")
        .integer(track)
        .raw(",\"args\":{\"name\":\"")
        .str(name)
        .raw("\"}}");
  }

  for (const TraceSpan& s : spans_) {
    sep();
    w.raw("{\"name\":\"").str(s.name).raw("\",\"cat\":\"").str(s.category);
    w.raw("\",\"ph\":\"X\",\"ts\":");
    us(s.start);
    w.raw(",\"dur\":");
    us(s.duration);
    w.raw(",\"pid\":0,\"tid\":").integer(s.track).raw(",\"args\":{");
    bool first_arg = true;
    for (const auto& [key, text] : s.args) {
      if (!first_arg) w.raw(",");
      first_arg = false;
      w.raw("\"").str(key).raw("\":\"").str(text).raw("\"");
    }
    for (const auto& [key, number] : s.num_args) {
      if (!first_arg) w.raw(",");
      first_arg = false;
      w.raw("\"").str(key).raw("\":");
      value(number);
    }
    w.raw("}}");
  }

  // Counter tracks after the spans: "C" events keyed by name within a tid;
  // Perfetto draws each as a step function holding until the next sample.
  for (const CounterSample& c : counters_) {
    sep();
    w.raw("{\"name\":\"").str(c.name).raw("\",\"ph\":\"C\",\"ts\":");
    us(c.time);
    w.raw(",\"pid\":0,\"tid\":").integer(c.track);
    w.raw(",\"args\":{\"value\":");
    value(c.value);
    w.raw("}}");
  }

  // Flow arrows last: each FlowArrow becomes an "s"/"f" pair sharing an
  // id; the viewer binds each endpoint to the span enclosing its (ts, tid)
  // and draws the connecting arrow. bp:"e" attaches the finish to the
  // enclosing span rather than the next slice's start.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowArrow& f = flows_[i];
    sep();
    w.raw("{\"name\":\"").str(f.name).raw("\",\"cat\":\"").str(f.category);
    w.raw("\",\"ph\":\"s\",\"id\":").integer(i).raw(",\"ts\":");
    us(f.start);
    w.raw(",\"pid\":0,\"tid\":").integer(f.start_track).raw("}");
    sep();
    w.raw("{\"name\":\"").str(f.name).raw("\",\"cat\":\"").str(f.category);
    w.raw("\",\"ph\":\"f\",\"bp\":\"e\",\"id\":").integer(i);
    w.raw(",\"ts\":");
    us(f.finish);
    w.raw(",\"pid\":0,\"tid\":").integer(f.finish_track).raw("}");
  }
  w.raw("\n]}\n");
  w.flush();
}

void ChromeTraceSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("ChromeTraceSink: cannot open '" + path + "'");
  write(out);
}

}  // namespace wrht::obs
