#include "wrht/obs/event_log.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::obs {

namespace {

ServiceEvent::Kind event_kind(const json::Value& v) {
  try {
    return event_kind_from_string(v.string());
  } catch (const InvalidArgument& e) {
    v.fail(e.what());
  }
}

std::uint32_t u32(const json::Value& v) {
  const std::uint64_t x = v.u64();
  if (x > std::numeric_limits<std::uint32_t>::max()) {
    v.fail(std::to_string(x) + " does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(x);
}

}  // namespace

std::string to_string(ServiceEvent::Kind kind) {
  switch (kind) {
    case ServiceEvent::Kind::kSubmit:
      return "submit";
    case ServiceEvent::Kind::kAdmit:
      return "admit";
    case ServiceEvent::Kind::kPreempt:
      return "preempt";
    case ServiceEvent::Kind::kGrant:
      return "grant";
    case ServiceEvent::Kind::kStart:
      return "start";
    case ServiceEvent::Kind::kComplete:
      return "complete";
    case ServiceEvent::Kind::kRetune:
      return "retune";
  }
  throw InvalidArgument("unknown ServiceEvent::Kind");
}

ServiceEvent::Kind event_kind_from_string(const std::string& name) {
  if (name == "submit") return ServiceEvent::Kind::kSubmit;
  if (name == "admit") return ServiceEvent::Kind::kAdmit;
  if (name == "preempt") return ServiceEvent::Kind::kPreempt;
  if (name == "grant") return ServiceEvent::Kind::kGrant;
  if (name == "start") return ServiceEvent::Kind::kStart;
  if (name == "complete") return ServiceEvent::Kind::kComplete;
  if (name == "retune") return ServiceEvent::Kind::kRetune;
  throw InvalidArgument("unknown service event kind '" + name + "'");
}

void EventLog::write_jsonl(std::ostream& out) const {
  json::Writer w(out);
  w.raw("{\"schema\": \"").raw(kSchema);
  w.raw("\", \"fabric_wavelengths\": ").integer(context_.fabric_wavelengths);
  w.raw(", \"policy\": \"").str(context_.policy);
  w.raw("\", \"seed\": ").integer(context_.seed);
  w.raw(", \"events\": ").integer(events_.size()).raw("}\n");
  for (const ServiceEvent& e : events_) {
    w.raw("{\"kind\": \"").raw(to_string(e.kind));
    w.raw("\", \"t\": ").number(e.time.count(), 17);
    w.raw(", \"job\": ").integer(e.job);
    w.raw(", \"tenant\": ").integer(e.tenant);
    w.raw(", \"w_lo\": ").integer(e.w_lo);
    w.raw(", \"w_hi\": ").integer(e.w_hi);
    w.raw(", \"cause\": \"").str(e.cause).raw("\"}\n");
  }
  w.flush();
}

void EventLog::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("EventLog: cannot open " + path);
  write_jsonl(out);
}

std::string EventLog::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

EventLog EventLog::read_jsonl(std::istream& in) {
  EventLog log;
  std::string line;
  require(static_cast<bool>(std::getline(in, line)),
          "EventLog: line 1: empty stream (missing header line)");
  // Every diagnostic below starts "line L: "; the catch adds the prefix.
  try {
    const json::Value header = json::Value::parse(line);
    const json::Value& schema = header.at("schema");
    if (schema.string() != kSchema) {
      schema.fail("expected schema '" + std::string(kSchema) +
                  "', got: " + line);
    }
    log.context_.fabric_wavelengths = u32(header.at("fabric_wavelengths"));
    log.context_.policy = header.at("policy").string();
    log.context_.seed = header.at("seed").u64();
    const std::uint64_t declared = header.at("events").u64();

    std::size_t line_number = 1;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      const json::Value event = json::Value::parse(line, line_number);
      ServiceEvent e;
      e.kind = event_kind(event.at("kind"));
      e.time = Seconds{event.at("t").number()};
      e.job = event.at("job").u64();
      e.tenant = u32(event.at("tenant"));
      e.w_lo = u32(event.at("w_lo"));
      e.w_hi = u32(event.at("w_hi"));
      e.cause = event.at("cause").string();
      // The recorder appends in simulation order; a time reversal means
      // the file was edited, interleaved, or corrupted — replaying it
      // would silently misorder grants.
      if (!log.events_.empty() && e.time < log.events_.back().time) {
        event.fail("out-of-order timestamp " +
                   json::number(e.time.count(), 17) + " (previous event at " +
                   json::number(log.events_.back().time.count(), 17) + ")");
      }
      log.events_.push_back(std::move(e));
    }
    if (log.events_.size() != declared) {
      throw Error("line " + std::to_string(line_number) +
                  ": header declares " + std::to_string(declared) +
                  " events but the file holds " +
                  std::to_string(log.events_.size()) +
                  (log.events_.size() < declared ? " (truncated?)"
                                                 : " (extra lines?)"));
    }
  } catch (const Error& e) {
    throw Error("EventLog: " + std::string(e.what()));
  }
  return log;
}

EventLog EventLog::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("EventLog: cannot open " + path);
  return read_jsonl(in);
}

}  // namespace wrht::obs
