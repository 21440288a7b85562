#include "json.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "wrht/common/error.hpp"
#include "wrht/obs/trace_json.hpp"

namespace wrht::e2e {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  Json parse_value() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json out;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type_ = Json::Type::kObject;
      if (consume('}')) return out;
      do {
        skip_space();
        std::string key = parse_string();
        expect(':');
        out.object_.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      out.type_ = Json::Type::kArray;
      if (consume(']')) return out;
      do {
        out.array_.push_back(parse_value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      out.type_ = Json::Type::kString;
      out.string_ = parse_string();
    } else if (consume_word("true") || consume_word("false")) {
      out.type_ = Json::Type::kBool;  // no reader needs the value
    } else if (consume_word("null")) {
      out.type_ = Json::Type::kNull;
    } else {
      const char* begin = text_.c_str() + pos_;
      char* end = nullptr;
      out.number_ = std::strtod(begin, &end);
      if (end == begin) fail("unexpected character");
      out.type_ = Json::Type::kNumber;
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return out;
  }

  std::string parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            const long code =
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            if (code > 0x7f) fail("non-ASCII \\u escape");
            c = static_cast<char>(code);
            break;
          }
          default: break;  // '"', '\\', '/'
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json Json::parse(const std::string& text) { return JsonParser(text).document(); }

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

double Json::number() const {
  if (type_ != Type::kNumber) throw Error("json: not a number");
  return number_;
}

const std::string& Json::string() const {
  if (type_ != Type::kString) throw Error("json: not a string");
  return string_;
}

const std::vector<Json>& Json::array() const {
  if (type_ != Type::kArray) throw Error("json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::object() const {
  if (type_ != Type::kObject) throw Error("json: not an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [name, value] : object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key);
  if (value == nullptr) throw Error("json: missing key '" + key + "'");
  return *value;
}

std::string json_quote(const std::string& text) {
  std::string out(1, '"');
  out += obs::ChromeTraceSink::escape(text);
  out += '"';
  return out;
}

}  // namespace wrht::e2e
