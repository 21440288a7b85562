// json codec unit tests: the escape table round-trips through the parser,
// numbers print with %.*g, u64() reads integer digits exactly, malformed
// input is rejected, and every diagnostic names the right line.
#include "wrht/common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "wrht/common/error.hpp"

namespace wrht::json {
namespace {

/// The message of the Error parsing `text` throws ("" when it parses).
std::string parse_error(const std::string& text, std::size_t first_line = 1) {
  try {
    (void)Value::parse(text, first_line);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// `body` wrapped in double quotes: a JSON string literal's text.
std::string quoted(const std::string& body) {
  std::string out = "\"";
  out += body;
  out += '"';
  return out;
}

/// Asserts `text` is rejected with a diagnostic starting "line L: ".
void expect_rejected_on_line(const std::string& text, std::size_t line) {
  const std::string what = parse_error(text);
  EXPECT_EQ(what.rfind("line " + std::to_string(line) + ": ", 0), 0u)
      << "input: " << text << "\nerror: " << what;
}

TEST(Json, EscapeUsesShortFormsAndLowercaseHex) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(escape(std::string(1, '\0')), "\\u0000");
  // DEL and UTF-8 are not JSON control characters: they pass through.
  EXPECT_EQ(escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(Json, EveryControlByteRoundTripsThroughEscapeAndParse) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw = {'a', static_cast<char>(c), 'b'};
    EXPECT_EQ(Value::parse(quoted(escape(raw))).string(), raw) << "byte " << c;
  }
  const std::string specials = "quote \" backslash \\ slash / utf8 \xc3\xa9";
  EXPECT_EQ(Value::parse(quoted(escape(specials))).string(), specials);
}

TEST(Json, ParserDecodesEveryStandardEscape) {
  EXPECT_EQ(Value::parse(R"("\"\\\/\b\f\n\r\tA\u007f")").string(),
            "\"\\/\b\f\n\r\tA\x7f");
}

TEST(Json, NumberIsPrintfG) {
  EXPECT_EQ(number(0.1, 17), "0.10000000000000001");
  EXPECT_EQ(number(1.0 / 3.0, 9), "0.333333333");
  EXPECT_EQ(number(2.5e-7, 9), "2.5e-07");
  EXPECT_EQ(number(6.0, 17), "6");
  EXPECT_THROW((void)number(1.0, 0), Error);
  EXPECT_THROW((void)number(1.0, 18), Error);
}

TEST(Json, SeventeenDigitsRoundTripExactly) {
  for (const double v : {0.1000000000000001, 1.0 / 3.0, 6.02214076e23,
                         -4.9e-300, 0.0}) {
    EXPECT_EQ(Value::parse(number(v, 17)).number(), v);
  }
}

TEST(Json, U64IsExactAtTheTopOfTheRange) {
  EXPECT_EQ(Value::parse("18446744073709551615").u64(),
            std::numeric_limits<std::uint64_t>::max());
  // One past the top still parses as a double but is no u64.
  const Value over = Value::parse("18446744073709551616");
  EXPECT_DOUBLE_EQ(over.number(), 18446744073709551616.0);
  EXPECT_THROW((void)over.u64(), Error);
  // 2^53 + 1 is not a double; u64() must not round through one.
  EXPECT_EQ(Value::parse("9007199254740993").u64(), 9007199254740993ull);
}

TEST(Json, U64RejectsSignsFractionsAndExponents) {
  for (const char* text : {"-1", "1.5", "1e3", "-0"}) {
    try {
      (void)Value::parse(text).u64();
      ADD_FAILURE() << text << " accepted as u64";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 1: "), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(Value::parse("0").u64(), 0u);
}

TEST(Json, ParsesObjectsArraysAndLiterals) {
  const Value doc = Value::parse(
      R"( {"name": "wrht", "list": [1, -2.5e3, true, false, null, []],)"
      R"( "nested": {"k": {}}} )");
  EXPECT_EQ(doc.at("name").string(), "wrht");
  const auto& list = doc.at("list").array();
  ASSERT_EQ(list.size(), 6u);
  EXPECT_EQ(list[0].u64(), 1u);
  EXPECT_DOUBLE_EQ(list[1].number(), -2500.0);
  EXPECT_TRUE(list[5].array().empty());
  EXPECT_TRUE(doc.at("nested").at("k").object().empty());
  // Members keep document order.
  EXPECT_EQ(doc.object()[2].first, "nested");
  EXPECT_THROW((void)doc.at("absent"), Error);
  EXPECT_THROW((void)doc.at("name").number(), Error);
  EXPECT_THROW((void)list[2].number(), Error);  // a boolean
}

TEST(Json, RejectsTrailingCharacters) {
  expect_rejected_on_line("{} x", 1);
  expect_rejected_on_line("1 2", 1);
  expect_rejected_on_line("{\"a\": 1}\n}", 2);
  expect_rejected_on_line("\"a\"\"b\"", 1);
}

TEST(Json, RejectsUnterminatedInput) {
  expect_rejected_on_line("\"abc", 1);
  expect_rejected_on_line("\"abc\\", 1);
  expect_rejected_on_line("{\"a\": 1,\n", 2);
  expect_rejected_on_line("[1, 2", 1);
  expect_rejected_on_line("", 1);
  expect_rejected_on_line("   \n  ", 2);
}

TEST(Json, RejectsUnknownEscapes) {
  expect_rejected_on_line(R"("a\qb")", 1);
  expect_rejected_on_line(R"("a\x41")", 1);
  expect_rejected_on_line(R"("\u00zz")", 1);
  expect_rejected_on_line(R"("\u12")", 1);
  // No writer emits code points above 0x7F; the reader refuses them
  // rather than guessing an encoding.
  expect_rejected_on_line(R"("\u00e9")", 1);
}

TEST(Json, RejectsRawControlBytesInStrings) {
  for (int c = 0; c < 0x20; ++c) {
    EXPECT_NE(parse_error(quoted({'a', static_cast<char>(c), 'b'})), "")
        << "byte " << c;
  }
}

TEST(Json, RejectsMalformedNumbersAndLiterals) {
  for (const char* text : {"01", "1.", ".5", "+1", "-", "1e", "1e+", "0x10",
                           "nan", "inf", "-inf", "tru", "nul", "1e999"}) {
    EXPECT_NE(parse_error(text), "") << text;
  }
}

TEST(Json, RejectsDuplicateKeysAndNonStringKeys) {
  expect_rejected_on_line("{\"a\": 1,\n \"a\": 2}", 2);
  expect_rejected_on_line("{1: 2}", 1);
  expect_rejected_on_line("{\"a\" 1}", 1);
  expect_rejected_on_line("[1,]", 1);
  expect_rejected_on_line("{\"a\": 1,}", 1);
}

TEST(Json, DeepNestingIsRejectedNotACrash) {
  EXPECT_NE(parse_error(std::string(100000, '[')), "");
  const std::string ok = std::string(32, '[') + std::string(32, ']');
  EXPECT_EQ(parse_error(ok), "");
}

TEST(Json, LineNumbersFollowAMultiLineDocument) {
  const std::string doc =
      "{\n"
      "  \"a\": 1,\n"
      "  \"b\": [\n"
      "    2,\n"
      "    \"x\"\n"
      "  ]\n"
      "}\n";
  const Value parsed = Value::parse(doc);
  try {
    (void)parsed.at("b").array()[1].number();
    FAIL() << "string read as a number";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "line 5: expected a number, got a string");
  }
  try {
    (void)parsed.at("c");
    FAIL() << "missing key found";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "line 1: missing key \"c\"");
  }
  std::string broken = doc;
  broken.replace(broken.find("\"x\""), 3, "oops");
  EXPECT_EQ(parse_error(broken), "line 5: expected a value, got 'o'");
  // CRLF line ends count once per line.
  EXPECT_EQ(parse_error("{\r\n\"a\":\r\n?}"),
            "line 3: expected a value, got '?'");
}

TEST(Json, FirstLineOffsetsEveryDiagnostic) {
  EXPECT_EQ(parse_error("{\"t\": zero}", 42),
            "line 42: expected a value, got 'z'");
  EXPECT_EQ(parse_error("[\n1,\n}", 10),
            "line 12: expected a value, got '}'");
  const Value v = Value::parse("\n\n{\"job\": -1}", 7);
  try {
    (void)v.at("job").u64();
    FAIL() << "-1 read as u64";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "line 9: expected an unsigned 64-bit integer, got -1");
  }
}

}  // namespace
}  // namespace wrht::json
