#include "wrht/obs/trace_json.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::obs {

namespace {

/// Fixed-precision microseconds: deterministic across runs and platforms.
std::string format_us(Seconds t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t.count() * 1e6);
  return buf;
}

/// Counter values: integers print exactly ("6"), everything else with %g
/// so the common whole-valued tracks stay clean in the JSON.
std::string format_value(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

}  // namespace

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
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Metadata first: process name, then the named tracks (track id order —
  // std::map keeps this stable).
  sep();
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      << "\"args\":{\"name\":\"" << json::escape(process_name_) << "\"}}";
  for (const auto& [track, name] : track_names_) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << track
        << ",\"args\":{\"name\":\"" << json::escape(name) << "\"}}";
  }

  for (const TraceSpan& s : spans_) {
    sep();
    out << "{\"name\":\"" << json::escape(s.name) << "\",\"cat\":\""
        << json::escape(s.category)
        << "\",\"ph\":\"X\",\"ts\":" << format_us(s.start)
        << ",\"dur\":" << format_us(s.duration) << ",\"pid\":0,\"tid\":"
        << s.track << ",\"args\":{";
    bool first_arg = true;
    for (const auto& [key, value] : s.args) {
      if (!first_arg) out << ",";
      first_arg = false;
      out << "\"" << json::escape(key) << "\":\"" << json::escape(value)
          << "\"";
    }
    for (const auto& [key, value] : s.num_args) {
      if (!first_arg) out << ",";
      first_arg = false;
      out << "\"" << json::escape(key) << "\":" << format_value(value);
    }
    out << "}}";
  }

  // Counter tracks after the spans: "C" events keyed by name within a tid;
  // Perfetto draws each as a step function holding until the next sample.
  for (const CounterSample& c : counters_) {
    sep();
    out << "{\"name\":\"" << json::escape(c.name) << "\",\"ph\":\"C\",\"ts\":"
        << format_us(c.time) << ",\"pid\":0,\"tid\":" << c.track
        << ",\"args\":{\"value\":" << format_value(c.value) << "}}";
  }

  // Flow arrows last: each FlowArrow becomes an "s"/"f" pair sharing an
  // id; the viewer binds each endpoint to the span enclosing its (ts, tid)
  // and draws the connecting arrow. bp:"e" attaches the finish to the
  // enclosing span rather than the next slice's start.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowArrow& f = flows_[i];
    sep();
    out << "{\"name\":\"" << json::escape(f.name) << "\",\"cat\":\""
        << json::escape(f.category) << "\",\"ph\":\"s\",\"id\":" << i
        << ",\"ts\":" << format_us(f.start) << ",\"pid\":0,\"tid\":"
        << f.start_track << "}";
    sep();
    out << "{\"name\":\"" << json::escape(f.name) << "\",\"cat\":\""
        << json::escape(f.category)
        << "\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << i
        << ",\"ts\":" << format_us(f.finish) << ",\"pid\":0,\"tid\":"
        << f.finish_track << "}";
  }
  out << "\n]}\n";
}

void ChromeTraceSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("ChromeTraceSink: cannot open '" + path + "'");
  write(out);
}

}  // namespace wrht::obs
