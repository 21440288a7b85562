// wrht-blame-1: the deterministic JSON interchange format of blame
// reports, and the cross-run differ built on it.
//
// The writer emits one key (or one array element) per line, doubles with
// 17 significant digits (round-trip exact), escaped names, fixed key
// order, no locale dependence — the same recipe as the svc-events-1 event
// log — so a report is byte-deterministic per (config, seed) and two
// reports can be diffed structurally. The reader parses the whole document
// through json::Value: it round-trips what the writer emits and rejects
// anything else — malformed, truncated, or missing a field — with a
// diagnostic naming the line.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "wrht/diag/blame.hpp"

namespace wrht::diag {

/// Schema marker every wrht-blame-1 file carries.
inline constexpr const char* kBlameSchema = "wrht-blame-1";

/// Serializes a run-level blame report. `what_if` entries (label ->
/// predicted seconds) are emitted in the given order.
void write_blame_json(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    std::ostream& out);

/// write_blame_json to `path`; throws wrht::Error when the file cannot be
/// opened.
void write_blame_file(
    const BlameReport& report,
    const std::vector<std::pair<std::string, double>>& what_if,
    const std::string& path);

/// A parsed wrht-blame-1 file, run- or service-kind; the diffable surface
/// (categories, per-lane busy seconds, per-tenant JCT seconds).
struct ParsedBlame {
  std::string kind;     ///< "run" or "service"
  std::string source;   ///< backend (run) or admission policy (service)
  double total_time = 0.0;
  double attributed_time = 0.0;
  std::map<std::string, double> categories;
  std::map<std::string, double> lanes;    ///< lane name -> busy seconds
  std::map<std::string, double> tenants;  ///< "tenant<id>" -> JCT seconds
  std::map<std::string, double> what_if;  ///< label -> predicted seconds
};

/// Parses a wrht-blame-1 stream: schema, kind, backend (run) or policy
/// (service), total_time, attributed_time, categories, and what_if + lanes
/// (run) or tenants (service). Throws wrht::Error "wrht-blame-1: line L:
/// ..." on malformed JSON, a foreign schema, or a missing or mistyped
/// field.
[[nodiscard]] ParsedBlame read_blame_json(std::istream& in);
[[nodiscard]] ParsedBlame read_blame_file(const std::string& path);

/// One diffed quantity.
struct BlameMover {
  std::string name;
  double base = 0.0;
  double other = 0.0;
  [[nodiscard]] double delta() const { return other - base; }
};

struct BlameDiff {
  double base_total = 0.0;
  double other_total = 0.0;
  /// Movers exceeding the threshold, sorted by |delta| descending.
  std::vector<BlameMover> categories;
  std::vector<BlameMover> lanes;
  std::vector<BlameMover> tenants;
  /// other_total grew beyond the relative threshold.
  bool regressed = false;
  /// No movers and totals within threshold.
  [[nodiscard]] bool clean() const {
    return !regressed && categories.empty() && lanes.empty() &&
           tenants.empty();
  }
  /// Human-readable verdict + mover table.
  [[nodiscard]] std::string to_string() const;
};

/// Compares two parsed reports. A category/lane/tenant moves when its
/// |delta| exceeds `rel_threshold` of the larger total; the run regresses
/// when other_total > base_total * (1 + rel_threshold).
[[nodiscard]] BlameDiff diff_blame(const ParsedBlame& base,
                                   const ParsedBlame& other,
                                   double rel_threshold = 0.05);

}  // namespace wrht::diag
