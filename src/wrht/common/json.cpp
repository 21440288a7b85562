#include "wrht/common/json.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>

#include "wrht/common/error.hpp"

namespace wrht::json {

namespace {

/// Hands `put` the pieces of escape(s) in order: runs of bytes that pass
/// through, and the escape of each byte that does not.
template <typename Put>
void escape_into(std::string_view s, Put&& put) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    if (i > run) put(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': put("\\\""); break;
      case '\\': put("\\\\"); break;
      case '\n': put("\\n"); break;
      case '\t': put("\\t"); break;
      case '\r': put("\\r"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        put(std::string_view(u, sizeof(u)));
      }
    }
  }
  if (run < s.size()) put(s.substr(run));
}

/// %.*g of `v` at `digits` into the Writer::kNumberChars bytes at `first`;
/// returns the end of what it wrote.
char* general(char* first, double v, int digits) {
  require(digits >= 1 && digits <= 17, "json::number: digits must be 1..17");
  return std::to_chars(first, first + Writer::kNumberChars, v,
                       std::chars_format::general, digits)
      .ptr;
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escape_into(s, [&out](std::string_view piece) { out += piece; });
  return out;
}

std::string number(double v, int digits) {
  char buf[Writer::kNumberChars];
  return std::string(buf, general(buf, v, digits));
}

Writer::Writer(std::ostream& out)
    : out_(out),
      block_(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
      pos_(block_.get()),
      end_(block_.get() + kBlockBytes) {}

Writer& Writer::str(std::string_view s) {
  escape_into(s, [this](std::string_view piece) { raw(piece); });
  return *this;
}

Writer& Writer::number(double v, int digits) {
  reserve(kNumberChars);
  pos_ = general(pos_, v, digits);
  return *this;
}

Writer& Writer::fixed(double v, int precision) {
  require(precision >= 0 && precision <= 17,
          "json::Writer::fixed: precision must be 0..17");
  reserve(kFixedChars);
  pos_ = std::to_chars(pos_, end_, v, std::chars_format::fixed, precision).ptr;
  return *this;
}

void Writer::flush() {
  out_.write(block_.get(), pos_ - block_.get());
  pos_ = block_.get();
}

Writer& Writer::raw_spill(std::string_view s) {
  while (s.size() > room()) {
    const std::size_t n = room();
    std::memcpy(pos_, s.data(), n);
    pos_ += n;
    s.remove_prefix(n);
    flush();
  }
  return raw(s);
}

/// Recursive-descent parser over RFC 8259 JSON. It counts lines while
/// skipping whitespace, the only place a newline may appear: raw control
/// bytes inside strings are rejected.
class Parser {
 public:
  Parser(std::string_view text, std::size_t first_line)
      : text_(text), line_(first_line) {}

  Value document() {
    Value value = parse_value(0);
    skip_space();
    if (pos_ < text_.size()) fail("trailing " + found() + " after the value");
    return value;
  }

 private:
  /// Deep enough for every artifact, shallow enough that hostile input
  /// cannot exhaust the stack.
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("line " + std::to_string(line_) + ": " + what);
  }

  /// The byte at the cursor, for diagnostics.
  std::string found() const {
    if (pos_ >= text_.size()) return "end of input";
    const auto c = static_cast<unsigned char>(text_[pos_]);
    char buf[16];
    if (c < 0x20 || c >= 0x7f) {
      std::snprintf(buf, sizeof(buf), "byte 0x%02x", c);
    } else {
      std::snprintf(buf, sizeof(buf), "'%c'", c);
    }
    return buf;
  }

  /// The byte at the cursor, or '\0' past the end ('\0' inside the text
  /// is a control byte, which every caller rejects as well).
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_space() {
    for (char c = peek(); c == ' ' || c == '\t' || c == '\r' || c == '\n';
         c = peek()) {
      if (c == '\n') ++line_;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c, const char* where) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "' " + where + ", got " + found());
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_space();
    Value out;
    out.line_ = line_;
    if (consume('{')) {
      out.type_ = Value::Type::kObject;
      if (consume('}')) return out;
      do {
        skip_space();
        if (peek() != '"') fail("expected a string key, got " + found());
        std::string key = parse_string();
        for (const auto& member : out.object_) {
          if (member.first == key) fail("duplicate key \"" + key + "\"");
        }
        expect(':', "after an object key");
        out.object_.emplace_back(std::move(key), parse_value(depth + 1));
      } while (consume(','));
      expect('}', "or ',' after an object member");
    } else if (consume('[')) {
      out.type_ = Value::Type::kArray;
      if (consume(']')) return out;
      do {
        out.array_.push_back(parse_value(depth + 1));
      } while (consume(','));
      expect(']', "or ',' after an array element");
    } else if (peek() == '"') {
      out.type_ = Value::Type::kString;
      out.text_ = parse_string();
    } else if (literal("true") || literal("false")) {
      out.type_ = Value::Type::kBool;
    } else if (!literal("null")) {
      out.type_ = Value::Type::kNumber;
      parse_number(out);
    }
    return out;
  }

  std::string parse_string() {
    ++pos_;  // the opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control " + found() + " inside a string");
      }
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      switch (const char e = text_[pos_++]) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += unicode_escape(); break;
        default:
          --pos_;
          fail("unknown escape after a backslash: " + found());
      }
    }
  }

  /// The four hex digits after "\u". No writer emits a code point above
  /// 0x7F (escape() passes UTF-8 through raw), so one is rejected rather
  /// than transcoded.
  char unicode_escape() {
    unsigned code = 0;
    const char* begin = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(begin, begin + 4, code, 16).ptr != begin + 4) {
      fail("malformed \\u escape");
    }
    if (code > 0x7f) fail("\\u escape above 0x7F");
    pos_ += 4;
    return static_cast<char>(code);
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, keeping the token so
  /// u64() can read its digits exactly.
  void parse_number(Value& out) {
    const std::size_t begin = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (peek() >= '0' && peek() <= '9') ++pos_;
      return pos_ > from;
    };
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      pos_ = begin;
      fail("expected a value, got " + found());
    }
    if (peek() == '.' && (++pos_, !digits())) {
      fail("expected a digit after '.', got " + found());
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) fail("expected an exponent digit, got " + found());
    }
    out.text_ = text_.substr(begin, pos_ - begin);
    const char* end = out.text_.data() + out.text_.size();
    if (std::from_chars(out.text_.data(), end, out.number_).ec !=
        std::errc()) {
      fail("number " + out.text_ + " is out of range");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

Value Value::parse(std::string_view text, std::size_t first_line) {
  return Parser(text, first_line).document();
}

void Value::fail(const std::string& what) const {
  throw Error("line " + std::to_string(line_) + ": " + what);
}

const Value& Value::expect(Type type) const {
  static constexpr const char* kNames[] = {
      "null", "a boolean", "a number", "a string", "an array", "an object"};
  if (type_ != type) {
    fail(std::string("expected ") + kNames[static_cast<int>(type)] +
         ", got " + kNames[static_cast<int>(type_)]);
  }
  return *this;
}

double Value::number() const { return expect(Type::kNumber).number_; }

std::uint64_t Value::u64() const {
  expect(Type::kNumber);
  std::uint64_t v = 0;
  const char* end = text_.data() + text_.size();
  const auto [stop, ec] = std::from_chars(text_.data(), end, v);
  if (ec != std::errc() || stop != end) {
    fail("expected an unsigned 64-bit integer, got " + text_);
  }
  return v;
}

const std::string& Value::string() const {
  return expect(Type::kString).text_;
}

const std::vector<Value>& Value::array() const {
  return expect(Type::kArray).array_;
}

const std::vector<std::pair<std::string, Value>>& Value::object() const {
  return expect(Type::kObject).object_;
}

const Value& Value::at(std::string_view key) const {
  for (const auto& [name, value] : object()) {
    if (name == key) return value;
  }
  fail("missing key \"" + std::string(key) + "\"");
}

}  // namespace wrht::json
