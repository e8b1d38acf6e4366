// Strict-JSON reader tests: the grammar the store/serve record formats
// rely on — exact double round-trip of fmt_shortest() emissions, escape
// and surrogate-pair decoding, insertion order with last-wins duplicate
// lookup, and hard rejection of the malformed shapes the crash-tolerant
// loaders classify as garbage.

#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "util/json.hpp"

namespace routesim {
namespace {

json::Value parsed(const std::string& text) {
  json::Value value;
  std::string error;
  EXPECT_TRUE(json::parse(text, &value, &error)) << text << ": " << error;
  return value;
}

void expect_rejected(const std::string& text) {
  json::Value value;
  std::string error;
  EXPECT_FALSE(json::parse(text, &value, &error)) << text;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parsed("null").is_null());
  EXPECT_TRUE(parsed("true").boolean);
  EXPECT_FALSE(parsed("false").boolean);
  EXPECT_DOUBLE_EQ(parsed("-12.5e-2").number, -0.125);
  EXPECT_EQ(parsed("\"plain\"").string, "plain");
  EXPECT_TRUE(parsed("  {}  ").is_object());
  EXPECT_TRUE(parsed("[]").array.empty());
}

TEST(JsonParse, FmtShortestEmissionsRoundTripBitExactly) {
  for (const double value :
       {1.0 / 3.0, 2.0000000000000004, 1e-308, 1.7976931348623157e308,
        -0.0, 6.851, 5e-324}) {
    const std::string text = fmt_shortest(value);
    const json::Value number = parsed(text);
    ASSERT_TRUE(number.is_number()) << text;
    // Bit equality, not EXPECT_DOUBLE_EQ: the store's resume-equals-cold
    // guarantee needs the exact same double back.
    EXPECT_EQ(number.number, value) << text;
  }
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

TEST(JsonParse, NumbersAreStrtodBitForBit) {
  const std::vector<std::string> numbers = {
      "0", "-0", "1", "-1", "0.5", "12.5e-3", "12.5E+3", "1e999", "-1e999",
      "1e-400", "-1e-400", "5e-324", "3e-324", "2.2250738585072011e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "12345678901234567890123", "0.12345678901234567890123",
      "9007199254740993.0000000000000000000001",
      "1.00000000000000011102230246251565404236316680908203125",
      "2.4703282292062327208828439643411068618252990130716238221279284125033775"
      "3635104375932649918180817996189898282347722858865463328355177969898199387"
      "e-324"};
  for (const std::string& text : numbers) {
    // In an array, so the span is read in place between other bytes.
    const json::Value value = parsed("[" + text + ",7]");
    ASSERT_EQ(value.array.size(), 2u) << text;
    ASSERT_TRUE(value.array[0].is_number()) << text;
    EXPECT_EQ(bits(value.array[0].number), bits(std::strtod(text.c_str(), nullptr)))
        << text;
  }
  EXPECT_TRUE(std::isinf(parsed("1e999").number));
  EXPECT_GT(parsed("1e999").number, 0.0);
  EXPECT_EQ(bits(parsed("1e-400").number), bits(0.0));
  EXPECT_EQ(bits(parsed("-0").number), bits(-0.0));
}

TEST(JsonParse, ParsesAViewWithoutATerminator) {
  // The reader takes a string_view: a line inside a larger buffer parses
  // on its own bytes only.
  const std::string buffer = R"({"t":0.25,"src":1}{"t":9)";
  json::Value value;
  ASSERT_TRUE(json::parse(std::string_view(buffer).substr(0, 18), &value));
  EXPECT_EQ(value.find("t")->number, 0.25);
  EXPECT_FALSE(json::parse(std::string_view(buffer).substr(18), &value));
  // A number cut by the view's end is read only up to it.
  ASSERT_TRUE(json::parse(std::string_view("1234").substr(0, 2), &value));
  EXPECT_EQ(value.number, 12.0);
}

TEST(JsonParse, LongPlainRunsMixedWithEscapes) {
  const std::string run(300, 'x');
  EXPECT_EQ(parsed("\"" + run + "\\n" + run + "\\\"" + run + "\"").string,
            run + "\n" + run + "\"" + run);
  EXPECT_EQ(parsed("\"" + run + "\\u00e9" + run + "\\\\\"").string,
            run + "\xc3\xa9" + run + "\\");
  EXPECT_EQ(parsed(R"("\\)" + run + R"(\/)" + run + R"(\t")").string,
            "\\" + run + "/" + run + "\t");
  EXPECT_EQ(parsed("\"\xf0\x9f\x98\x80" + run + "\"").string, "\xf0\x9f\x98\x80" + run);
  expect_rejected("\"" + run + "\x01" + run + "\"");  // raw control mid-run
  expect_rejected("\"" + run);                        // unterminated run
  expect_rejected("\"" + run + "\\");                 // escape cut at the end
  // The emitter's bulk escaping reads back to the original.
  const std::string mixed = run + "\"\\\n\t\r\x01" + run + "\x1f";
  std::string quoted = "\"";
  append_json_escaped(quoted, mixed);
  quoted += '"';
  EXPECT_EQ(parsed(quoted).string, mixed);
}

TEST(JsonParse, StringEscapesAndSurrogatePairs) {
  EXPECT_EQ(parsed(R"("a\"b\\c\/d\n\t\r\f\b")").string, "a\"b\\c/d\n\t\r\f\b");
  EXPECT_EQ(parsed(R"("Aé")").string, "A\xc3\xa9");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parsed(R"("😀")").string, "\xf0\x9f\x98\x80");
  expect_rejected(R"("\ud83d")");   // lone high surrogate
  expect_rejected(R"("\uZZZZ")");   // non-hex digits
  expect_rejected("\"raw\ncontrol\"");
}

TEST(JsonParse, ObjectsPreserveOrderAndFindIsLastWins) {
  const json::Value value =
      parsed(R"({"a":1,"b":{"nested":[1,2,3]},"a":2})");
  ASSERT_EQ(value.object.size(), 3u);
  EXPECT_EQ(value.object[0].first, "a");
  EXPECT_EQ(value.object[1].first, "b");
  // Duplicate keys keep both entries; lookup resolves to the last, the
  // same rule the append-only store applies across records.
  EXPECT_DOUBLE_EQ(value.find("a")->number, 2.0);
  const json::Value* nested = value.find("b")->find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_EQ(nested->array.size(), 3u);
  EXPECT_DOUBLE_EQ(nested->array[2].number, 3.0);
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_EQ(nested->find("not an object"), nullptr);
}

TEST(JsonParse, RejectsTheGarbageShapesTheLoaderSkips) {
  expect_rejected("");
  expect_rejected("{\"cut\":1");          // truncated record tail
  expect_rejected("{\"v\":1}trailing");   // junk after the document
  expect_rejected("{'single':1}");
  expect_rejected("[1,2,]");
  expect_rejected("{\"a\" 1}");
  expect_rejected("nan");                 // JSON has no non-finite literals
  expect_rejected("+1");
  expect_rejected("01");
}

TEST(JsonParse, DepthIsBoundedAgainstMaliciousNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  expect_rejected(deep);
  // Reasonable nesting (well under the cap) still parses.
  std::string shallow;
  for (int i = 0; i < 32; ++i) shallow += '[';
  for (int i = 0; i < 32; ++i) shallow += ']';
  EXPECT_TRUE(parsed(shallow).is_array());
}

}  // namespace
}  // namespace routesim
