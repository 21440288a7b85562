#include "wrht/diag/blame_json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/common/json.hpp"

namespace wrht::diag {

namespace {

void write_categories(const BlameTotals& totals, json::Writer& w) {
  bool first = true;
  for (const BlameCategory category : all_blame_categories()) {
    w.raw(first ? "    \"" : ",\n    \"").raw(to_string(category));
    w.raw("\": ").number(totals[category], 17);
    first = false;
  }
  w.raw("\n");
}

/// Reads an object of numbers (categories, what-if makespans) into `out`;
/// the parser already rejects duplicate keys.
void read_numbers(const json::Value& object,
                  std::map<std::string, double>& out) {
  for (const auto& [name, value] : object.object()) {
    out[name] = value.number();
  }
}

/// Adds one array entry (a lane or a tenant) keyed by `name`; a repeated
/// name would silently drop a row, so it is rejected.
void add_entry(const json::Value& entry, std::string name, double value,
               std::map<std::string, double>& out) {
  const auto [it, inserted] = out.emplace(std::move(name), value);
  if (!inserted) entry.fail("duplicate entry \"" + it->first + "\"");
}

void add_movers(const std::map<std::string, double>& base,
                const std::map<std::string, double>& other,
                double abs_threshold, std::vector<BlameMover>* out) {
  std::map<std::string, BlameMover> merged;
  for (const auto& [name, v] : base) {
    merged[name].name = name;
    merged[name].base = v;
  }
  for (const auto& [name, v] : other) {
    merged[name].name = name;
    merged[name].other = v;
  }
  for (const auto& [name, mover] : merged) {
    if (std::abs(mover.delta()) > abs_threshold) out->push_back(mover);
  }
  std::sort(out->begin(), out->end(),
            [](const BlameMover& a, const BlameMover& b) {
              if (std::abs(a.delta()) != std::abs(b.delta())) {
                return std::abs(a.delta()) > std::abs(b.delta());
              }
              return a.name < b.name;
            });
}

}  // namespace

void write_blame_json(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    std::ostream& out) {
  json::Writer w(out);
  w.raw("{\n  \"schema\": \"").raw(kBlameSchema);
  w.raw("\",\n  \"kind\": \"run\",\n  \"backend\": \"").str(report.backend);
  w.raw("\",\n  \"reconfig_policy\": \"").str(report.reconfig_policy);
  w.raw("\",\n  \"mrr_reconfig_delay\": ");
  w.number(report.mrr_reconfig_delay.count(), 17);
  w.raw(",\n  \"oeo_delay\": ").number(report.oeo_delay.count(), 17);
  w.raw(",\n  \"steps\": ").integer(report.steps);
  w.raw(",\n  \"rounds\": ").integer(report.rounds);
  w.raw(",\n  \"transfers\": ").integer(report.transfers);
  w.raw(",\n  \"total_time\": ").number(report.total_time.count(), 17);
  w.raw(",\n  \"attributed_time\": ").number(report.attributed(), 17);
  w.raw(",\n  \"categories\": {\n");
  write_categories(report.categories, w);
  w.raw("  },\n  \"what_if\": {\n");
  for (std::size_t i = 0; i < what_if.size(); ++i) {
    w.raw("    \"").str(what_if[i].first).raw("\": ");
    w.number(what_if[i].second, 17);
    w.raw(i + 1 < what_if.size() ? ",\n" : "\n");
  }
  w.raw("  },\n  \"lanes\": [\n");
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneBlame& lane = report.lanes[i];
    w.raw("    {\"lane\": \"").str(lane.lane);
    w.raw("\", \"busy\": ").number(lane.busy.count(), 17);
    for (const BlameCategory category : all_blame_categories()) {
      w.raw(", \"").raw(to_string(category)).raw("\": ");
      w.number(lane.totals[category], 17);
    }
    w.raw(i + 1 < report.lanes.size() ? "},\n" : "}\n");
  }
  w.raw("  ],\n  \"critical_path\": [\n");
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const CriticalRound& r = report.critical_path[i];
    w.raw("    {\"step\": ").integer(r.step);
    w.raw(", \"lane\": \"").str(r.lane);
    w.raw("\", \"round\": ").integer(r.round);
    w.raw(", \"start\": ").number(r.start.count(), 17);
    w.raw(", \"duration\": ").number(r.duration.count(), 17);
    w.raw(", \"reconfiguration\": ").number(r.reconfig.count(), 17);
    w.raw(", \"conversion\": ").number(r.conversion.count(), 17);
    w.raw(", \"transmission\": ").number(r.serialization.count(), 17);
    w.raw(", \"processing\": ").number(r.processing.count(), 17);
    w.raw(", \"retune\": ").raw(r.retune ? "true" : "false");
    w.raw(i + 1 < report.critical_path.size() ? "},\n" : "}\n");
  }
  w.raw("  ]\n}\n");
  w.flush();
}

void write_blame_file(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("write_blame_file: cannot open '" + path + "'");
  write_blame_json(report, what_if, out);
}

ParsedBlame read_blame_json(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const json::Value doc = json::Value::parse(text.str());
    const json::Value& schema = doc.at("schema");
    if (schema.string() != kBlameSchema) {
      schema.fail("unsupported schema '" + schema.string() + "'");
    }
    ParsedBlame parsed;
    const json::Value& kind = doc.at("kind");
    parsed.kind = kind.string();
    if (parsed.kind != "run" && parsed.kind != "service") {
      kind.fail("unknown kind '" + parsed.kind + "'");
    }
    const bool run = parsed.kind == "run";
    parsed.source = doc.at(run ? "backend" : "policy").string();
    parsed.total_time = doc.at("total_time").number();
    parsed.attributed_time = doc.at("attributed_time").number();
    read_numbers(doc.at("categories"), parsed.categories);
    if (run) {
      read_numbers(doc.at("what_if"), parsed.what_if);
      for (const json::Value& lane : doc.at("lanes").array()) {
        add_entry(lane, lane.at("lane").string(), lane.at("busy").number(),
                  parsed.lanes);
      }
    } else {
      for (const json::Value& tenant : doc.at("tenants").array()) {
        add_entry(tenant,
                  "tenant" + std::to_string(tenant.at("tenant").u64()),
                  tenant.at("jct").number(), parsed.tenants);
      }
    }
    return parsed;
  } catch (const Error& e) {
    throw Error(std::string(kBlameSchema) + ": " + e.what());
  }
}

ParsedBlame read_blame_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("read_blame_file: cannot open '" + path + "'");
  return read_blame_json(in);
}

BlameDiff diff_blame(const ParsedBlame& base, const ParsedBlame& other,
                     double rel_threshold) {
  BlameDiff diff;
  diff.base_total = base.total_time;
  diff.other_total = other.total_time;
  const double scale = std::max(std::abs(base.total_time),
                                std::abs(other.total_time));
  const double abs_threshold = rel_threshold * scale;
  add_movers(base.categories, other.categories, abs_threshold,
             &diff.categories);
  add_movers(base.lanes, other.lanes, abs_threshold, &diff.lanes);
  add_movers(base.tenants, other.tenants, abs_threshold, &diff.tenants);
  diff.regressed =
      other.total_time > base.total_time + rel_threshold * scale;
  return diff;
}

std::string BlameDiff::to_string() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "blame diff: %s (total %.6e -> %.6e, %+.2f%%)\n",
                clean() ? "clean" : (regressed ? "REGRESSED" : "shifted"),
                base_total, other_total,
                base_total != 0.0
                    ? 100.0 * (other_total - base_total) / base_total
                    : 0.0);
  out += line;
  const auto table = [&](const char* title,
                         const std::vector<BlameMover>& movers) {
    if (movers.empty()) return;
    out += std::string("  ") + title + ":\n";
    for (const BlameMover& m : movers) {
      std::snprintf(line, sizeof(line),
                    "    %-20s %.6e -> %.6e (%+.6e s)\n", m.name.c_str(),
                    m.base, m.other, m.delta());
      out += line;
    }
  };
  table("categories", categories);
  table("lanes", lanes);
  table("tenants", tenants);
  return out;
}

}  // namespace wrht::diag
