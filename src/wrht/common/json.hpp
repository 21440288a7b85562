// The one JSON codec behind every artifact.
//
// RunReports, Chrome traces, wrht-metrics-1, wrht-perf-1, svc-events-1 and
// wrht-blame-1 keep their own key order and whitespace, but all seven
// writers emit through one Writer: strings through str(), integers through
// integer(), %.9g / %.17g numbers through number() and the trace's %.6f
// microseconds through fixed(). Every number is std::to_chars, which C++17
// defines as printf in the C locale, so the bytes are the %.*g, %.*f and
// classic-locale `<<` forms the artifacts have always had, and neither the
// stream's locale nor the process's can change them. escape() and number()
// are the same escaper and formatter for callers that need a std::string.
// Value::parse is the one reader: it takes exactly one well-formed value
// and names the line of every error, so each artifact reader either
// rejects malformed input with a diagnostic that names the line or
// round-trips it exactly.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Buffered artifact output. Appends into one reused block of at most
/// kBlockBytes and hands the stream each full block with one unformatted
/// write(), so nothing is formatted by the stream (its locale and flags
/// never apply) and a writer never holds a whole artifact. flush() hands
/// over the rest; the destructor writes nothing, so a writer ends with
/// flush() once the artifact is complete.
class Writer {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  /// Room for any 64-bit integer (20 digits and a sign) and any %.17g
  /// double (24 characters, "-1.2345678901234567e-308").
  static constexpr std::size_t kNumberChars = 32;

  explicit Writer(std::ostream& out);

  /// `s` as it is.
  Writer& raw(std::string_view s) {
    if (s.size() > room()) return raw_spill(s);
    std::memcpy(pos_, s.data(), s.size());
    pos_ += s.size();
    return *this;
  }
  /// escape(s), without building it.
  Writer& str(std::string_view s);
  /// `v` in decimal, as `<<` prints it under the classic locale.
  template <typename T>
  Writer& integer(T v) {
    // `<<` prints a char-sized integer as a character, not as a number.
    static_assert(std::is_integral_v<T> && sizeof(T) > 1,
                  "integer() takes integers wider than a char");
    reserve(kNumberChars);
    pos_ = std::to_chars(pos_, end_, v).ptr;
    return *this;
  }
  /// number(v, digits), without building it.
  Writer& number(double v, int digits);
  /// `v` printed with %.*f at `precision` (0..17) decimals.
  Writer& fixed(double v, int precision);

  /// Hands the buffered bytes to the stream (without flushing the stream).
  void flush();

 private:
  /// Room for any %.17f double: a sign, DBL_MAX's 309 integer digits, the
  /// point and 17 decimals.
  static constexpr std::size_t kFixedChars = 1 + 309 + 1 + 17;

  [[nodiscard]] std::size_t room() const {
    return static_cast<std::size_t>(end_ - pos_);
  }
  /// Hands the block over first when fewer than `n` bytes are left.
  void reserve(std::size_t n) {
    if (room() < n) flush();
  }
  Writer& raw_spill(std::string_view s);

  std::ostream& out_;
  std::unique_ptr<char[]> block_;
  char* pos_ = nullptr;
  char* end_ = nullptr;
};

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
