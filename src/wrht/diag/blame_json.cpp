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

void write_categories(const BlameTotals& totals, const char* indent,
                      std::ostream& out) {
  bool first = true;
  for (const BlameCategory category : all_blame_categories()) {
    if (!first) out << ",\n";
    first = false;
    out << indent << "\"" << to_string(category)
        << "\": " << json::number(totals[category], 17);
  }
  out << "\n";
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
  const auto num = [](double v) { return json::number(v, 17); };
  out << "{\n";
  out << "  \"schema\": \"" << kBlameSchema << "\",\n";
  out << "  \"kind\": \"run\",\n";
  out << "  \"backend\": \"" << json::escape(report.backend) << "\",\n";
  out << "  \"reconfig_policy\": \"" << json::escape(report.reconfig_policy)
      << "\",\n";
  out << "  \"mrr_reconfig_delay\": " << num(report.mrr_reconfig_delay.count())
      << ",\n";
  out << "  \"oeo_delay\": " << num(report.oeo_delay.count()) << ",\n";
  out << "  \"steps\": " << report.steps << ",\n";
  out << "  \"rounds\": " << report.rounds << ",\n";
  out << "  \"transfers\": " << report.transfers << ",\n";
  out << "  \"total_time\": " << num(report.total_time.count()) << ",\n";
  out << "  \"attributed_time\": " << num(report.attributed()) << ",\n";
  out << "  \"categories\": {\n";
  write_categories(report.categories, "    ", out);
  out << "  },\n";
  out << "  \"what_if\": {\n";
  for (std::size_t i = 0; i < what_if.size(); ++i) {
    out << "    \"" << json::escape(what_if[i].first)
        << "\": " << num(what_if[i].second)
        << (i + 1 < what_if.size() ? ",\n" : "\n");
  }
  out << "  },\n";
  out << "  \"lanes\": [\n";
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneBlame& lane = report.lanes[i];
    out << "    {\"lane\": \"" << json::escape(lane.lane)
        << "\", \"busy\": " << num(lane.busy.count());
    for (const BlameCategory category : all_blame_categories()) {
      out << ", \"" << to_string(category)
          << "\": " << num(lane.totals[category]);
    }
    out << "}" << (i + 1 < report.lanes.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"critical_path\": [\n";
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const CriticalRound& r = report.critical_path[i];
    out << "    {\"step\": " << r.step << ", \"lane\": \""
        << json::escape(r.lane) << "\", \"round\": " << r.round
        << ", \"start\": " << num(r.start.count())
        << ", \"duration\": " << num(r.duration.count())
        << ", \"reconfiguration\": " << num(r.reconfig.count())
        << ", \"conversion\": " << num(r.conversion.count())
        << ", \"transmission\": " << num(r.serialization.count())
        << ", \"processing\": " << num(r.processing.count())
        << ", \"retune\": " << (r.retune ? "true" : "false") << "}"
        << (i + 1 < report.critical_path.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
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
