// json codec unit tests: the escape table round-trips through the parser,
// numbers print exactly as printf's %.*g and %.6f (checked on seeded
// doubles), integers as the classic-locale `<<`, the Writer hands its
// stream whole blocks, u64() reads integer digits exactly, malformed input
// is rejected, and every diagnostic names the right line.
#include "wrht/common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "wrht/common/error.hpp"
#include "wrht/obs/trace_json.hpp"

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

/// `v` through printf, the reference the writers' bytes were defined by.
std::string printf_g(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string printf_f6(double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// What `append` writes through one Writer.
template <typename Append>
std::string through_writer(Append&& append) {
  std::ostringstream out;
  Writer w(out);
  append(w);
  w.flush();
  return out.str();
}

TEST(Json, NumberMatchesPrintfOnSeededDoubles) {
  std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 9007199254740991.0,
      9007199254740992.0, 9007199254740993.0, -9007199254740993.0, 0x1p63,
      -0x1p63, 0x1p64, 0.5, 0.1, 1e-7, 2.5e-7, 123456789.0, 1e21, 1e22};
  std::mt19937_64 rng(20231030);
  for (int i = 0; i < 3000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (int i = 0; i < 3000; ++i) {
    // Decimal-like: up to nine significant digits at a power of ten in
    // [1e-15, 1e15], the shape of times, rates and byte counts.
    const auto mantissa = static_cast<double>(rng() % 1000000000);
    const auto exponent = static_cast<int>(rng() % 31) - 15;
    values.push_back((rng() % 2 == 0 ? 1.0 : -1.0) * mantissa *
                     std::pow(10.0, exponent));
  }

  std::string expected;
  for (const double v : values) {
    for (int digits = 1; digits <= 17; ++digits) {
      const std::string reference = printf_g(v, digits);
      ASSERT_EQ(number(v, digits), reference)
          << "%." << digits << "g of bits "
          << std::bit_cast<std::uint64_t>(v);
      expected += reference;
      expected += ' ';
    }
    expected += printf_f6(v * 1e6);
    expected += '\n';
  }
  // The Writer's appenders, block boundaries included, give the same bytes.
  EXPECT_EQ(through_writer([&](Writer& w) {
              for (const double v : values) {
                for (int digits = 1; digits <= 17; ++digits) {
                  w.number(v, digits).raw(" ");
                }
                w.fixed(v * 1e6, 6).raw("\n");
              }
            }),
            expected);

  // Integers: `<<` under the classic locale, at the 64-bit extremes too.
  for (const std::int64_t i :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{9007199254740993},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    std::ostringstream classic;
    classic << i;
    EXPECT_EQ(through_writer([&](Writer& w) { w.integer(i); }), classic.str());
  }
  EXPECT_EQ(through_writer([](Writer& w) {
              w.integer(std::numeric_limits<std::uint64_t>::max());
            }),
            "18446744073709551615");
  EXPECT_EQ(through_writer([](Writer& w) {
              w.integer(std::numeric_limits<std::uint32_t>::max());
            }),
            "4294967295");

  // The Chrome trace's counter rule: a whole value that fits a long long
  // prints as %lld, anything else as %g; timestamps are %.6f microseconds.
  obs::ChromeTraceSink trace;
  std::string events =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"wrht\"}}";
  for (std::size_t i = 0; i < 200 && i < values.size(); ++i) {
    const double v = values[i];
    const Seconds t{std::abs(values[values.size() - 1 - i]) * 1e-9};
    trace.counter(obs::CounterSample{"c", t, v, 0});
    char value[64];
    if (v >= -0x1p63 && v < 0x1p63 && v == std::trunc(v)) {
      std::snprintf(value, sizeof(value), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(value, sizeof(value), "%g", v);
    }
    events += ",\n{\"name\":\"c\",\"ph\":\"C\",\"ts\":" +
              printf_f6(t.count() * 1e6) +
              ",\"pid\":0,\"tid\":0,\"args\":{\"value\":" + value + "}}";
  }
  events += "\n]}\n";
  std::ostringstream written;
  trace.write(written);
  EXPECT_EQ(written.str(), events);

  EXPECT_THROW(through_writer([](Writer& w) { w.number(1.0, 0); }), Error);
  EXPECT_THROW(through_writer([](Writer& w) { w.fixed(1.0, 18); }), Error);
}

/// Counts the writes that reach it.
class CountingBuf final : public std::stringbuf {
 public:
  std::vector<std::streamsize> writes;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.push_back(n);
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(Json, WriterHandsTheStreamWholeBlocks) {
  CountingBuf buf;
  std::ostream out(&buf);
  Writer w(out);
  std::string expected;
  const std::string long_piece(3 * Writer::kBlockBytes / 2, 'x');
  for (int i = 0; i < 20000; ++i) {
    w.raw("{\"i\": ").integer(i).raw(", \"s\": \"").str("a\"b\n").raw("\"}\n");
    expected += "{\"i\": " + std::to_string(i) + ", \"s\": \"a\\\"b\\n\"}\n";
    if (i == 10000) {
      w.raw(long_piece);
      expected += long_piece;
    }
  }
  // Nothing is handed over piecemeal: every write but the last is one
  // block of at most kBlockBytes, and the stream sees no bytes until a
  // block fills.
  ASSERT_FALSE(buf.writes.empty());
  for (const std::streamsize n : buf.writes) {
    EXPECT_LE(static_cast<std::size_t>(n), Writer::kBlockBytes);
    EXPECT_GT(static_cast<std::size_t>(n), Writer::kBlockBytes - 64);
  }
  const std::size_t before = buf.writes.size();
  w.flush();
  EXPECT_EQ(buf.writes.size(), before + 1);
  EXPECT_EQ(buf.str(), expected);
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
