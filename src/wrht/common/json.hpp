// The one JSON codec behind every artifact.
//
// RunReports, Chrome traces, wrht-metrics-1, wrht-perf-1, svc-events-1 and
// wrht-blame-1 keep their own key order and whitespace, but every string
// they emit goes through escape() and every %.9g / %.17g number through
// number(). Value::parse is the one reader: it takes exactly one
// well-formed value and names the line of every error, so each artifact
// reader either rejects malformed input with a diagnostic that names the
// line or round-trips it exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wrht::json {

/// The body of a JSON string literal for `s`: `"`, `\`, newline, tab and
/// carriage return get their short escapes, every other control byte
/// becomes \u00xx, and all other bytes (UTF-8 included) pass through.
[[nodiscard]] std::string escape(std::string_view s);

/// `v` printed with %.*g at `digits` (1..17) significant digits: 9 for
/// plotting-grade artifacts, 17 where a reader must recover the exact
/// double.
[[nodiscard]] std::string number(double v, int digits);

/// One parsed JSON value. Accessors check the type, and every error is a
/// wrht::Error reading "line L: ...", L being the line the offending value
/// starts on (for syntax errors, the line parsing stopped on).
class Value {
 public:
  /// Parses exactly one value surrounded by optional whitespace; anything
  /// after it throws. Lines count from `first_line`, so a caller parsing
  /// one line of a larger file reports that file's line numbers.
  [[nodiscard]] static Value parse(std::string_view text,
                                   std::size_t first_line = 1);

  [[nodiscard]] double number() const;
  /// The number's own digits as an unsigned 64-bit integer, so ids and
  /// seeds stay exact; a sign, a fraction, an exponent or a value past
  /// 2^64 - 1 throws.
  [[nodiscard]] std::uint64_t u64() const;
  [[nodiscard]] const std::string& string() const;
  [[nodiscard]] const std::vector<Value>& array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& object()
      const;
  /// The member `key` of an object; throws when it is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Throws wrht::Error("line L: " + what) for this value's line, so a
  /// reader's own checks point where the parser's do.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  friend class Parser;
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  /// This value, or a throw when it is not of `type`.
  const Value& expect(Type type) const;

  Type type_ = Type::kNull;
  std::size_t line_ = 0;
  double number_ = 0.0;
  std::string text_;  ///< a string's contents, or a number's token
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

}  // namespace wrht::json
