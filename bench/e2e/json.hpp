// Minimal JSON reader for the two documents the benchmark reads back:
// BENCHMARK.json (metric names, units, directions, bounds) and its own
// BENCH_e2e.json results (for --compare). Parse errors name the byte
// offset.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace wrht::e2e {

class Json {
 public:
  [[nodiscard]] static Json parse(const std::string& text);
  /// Reads and parses `path`; throws wrht::Error naming the file.
  [[nodiscard]] static Json parse_file(const std::string& path);

  /// Each accessor throws wrht::Error when the value has another type.
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] const std::vector<Json>& array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& object()
      const;
  /// Member `key` of an object; throws when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Member `key` of an object, or null when absent.
  [[nodiscard]] const Json* find(const std::string& key) const;

 private:
  friend class JsonParser;
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type_ = Type::kNull;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// `text` as a JSON string literal (quotes included).
[[nodiscard]] std::string json_quote(const std::string& text);

}  // namespace wrht::e2e
