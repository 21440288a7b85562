#include "wrht/obs/event_log.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"

namespace wrht::obs {

namespace {

/// Round-trip precision: %.17g is enough digits that strtod reconstructs
/// the exact double, which the replay-identity gate depends on.
std::string num17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u': {
        require(i + 4 < s.size(), "EventLog: truncated \\u escape");
        const unsigned long code = std::strtoul(s.substr(i + 1, 4).c_str(),
                                                nullptr, 16);
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default:
        out += s[i];
    }
  }
  return out;
}

/// Minimal field extractor for the flat one-level objects write_jsonl
/// emits. Finds `"key":` and returns the raw value token (string values
/// come back unquoted and unescaped).
class LineParser {
 public:
  explicit LineParser(const std::string& line) : line_(line) {}

  std::string raw(const std::string& key) const {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line_.find(needle);
    if (at == std::string::npos) {
      throw InvalidArgument("EventLog: missing field '" + key +
                            "' in: " + line_);
    }
    std::size_t i = at + needle.size();
    while (i < line_.size() && line_[i] == ' ') ++i;
    if (i >= line_.size()) {
      throw InvalidArgument("EventLog: empty value for '" + key + "'");
    }
    if (line_[i] == '"') {
      // String value: scan to the closing unescaped quote.
      std::size_t j = i + 1;
      while (j < line_.size()) {
        if (line_[j] == '\\') {
          j += 2;
          continue;
        }
        if (line_[j] == '"') break;
        ++j;
      }
      if (j >= line_.size()) {
        throw InvalidArgument("EventLog: unterminated string for '" + key +
                              "' in: " + line_);
      }
      return unescape(line_.substr(i + 1, j - i - 1));
    }
    std::size_t j = i;
    while (j < line_.size() && line_[j] != ',' && line_[j] != '}') ++j;
    return line_.substr(i, j - i);
  }

  std::uint64_t u64(const std::string& key) const {
    return std::strtoull(raw(key).c_str(), nullptr, 10);
  }

  double f64(const std::string& key) const {
    return std::strtod(raw(key).c_str(), nullptr);
  }

 private:
  const std::string& line_;
};

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
  out << "{\"schema\": \"" << kSchema
      << "\", \"fabric_wavelengths\": " << context_.fabric_wavelengths
      << ", \"policy\": \"" << escape(context_.policy)
      << "\", \"seed\": " << context_.seed
      << ", \"events\": " << events_.size() << "}\n";
  for (const ServiceEvent& e : events_) {
    out << "{\"kind\": \"" << to_string(e.kind)
        << "\", \"t\": " << num17(e.time.count()) << ", \"job\": " << e.job
        << ", \"tenant\": " << e.tenant << ", \"w_lo\": " << e.w_lo
        << ", \"w_hi\": " << e.w_hi << ", \"cause\": \"" << escape(e.cause)
        << "\"}\n";
  }
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
  std::uint64_t declared = 0;
  try {
    const LineParser header(line);
    if (header.raw("schema") != kSchema) {
      throw InvalidArgument("expected schema '" + std::string(kSchema) +
                            "', got: " + line);
    }
    log.context_.fabric_wavelengths =
        static_cast<std::uint32_t>(header.u64("fabric_wavelengths"));
    log.context_.policy = header.raw("policy");
    log.context_.seed = header.u64("seed");
    declared = header.u64("events");
  } catch (const Error& e) {
    throw Error("EventLog: line 1: " + std::string(e.what()));
  }
  std::size_t line_number = 1;
  Seconds previous{0.0};
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ServiceEvent e;
    try {
      const LineParser p(line);
      e.kind = event_kind_from_string(p.raw("kind"));
      e.time = Seconds{p.f64("t")};
      e.job = p.u64("job");
      e.tenant = static_cast<std::uint32_t>(p.u64("tenant"));
      e.w_lo = static_cast<std::uint32_t>(p.u64("w_lo"));
      e.w_hi = static_cast<std::uint32_t>(p.u64("w_hi"));
      e.cause = p.raw("cause");
    } catch (const Error& err) {
      throw Error("EventLog: line " + std::to_string(line_number) + ": " +
                  std::string(err.what()));
    }
    // The recorder appends in simulation order; a time reversal means the
    // file was edited, interleaved, or corrupted — replaying it would
    // silently misorder grants.
    if (!log.events_.empty() && e.time < previous) {
      throw Error("EventLog: line " + std::to_string(line_number) +
                  ": out-of-order timestamp " + num17(e.time.count()) +
                  " (previous event at " + num17(previous.count()) + ")");
    }
    previous = e.time;
    log.events_.push_back(std::move(e));
  }
  if (log.events_.size() != declared) {
    throw Error("EventLog: line " + std::to_string(line_number) +
                ": header declares " + std::to_string(declared) +
                " events but the file holds " +
                std::to_string(log.events_.size()) +
                (log.events_.size() < declared ? " (truncated?)"
                                               : " (extra lines?)"));
  }
  return log;
}

EventLog EventLog::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("EventLog: cannot open " + path);
  return read_jsonl(in);
}

}  // namespace wrht::obs
