// The shared number codec against the printf/scanf precision ladder it
// replaced: for every double the new formatter must write the very bytes
// the old one did (store keys and trace fingerprints depend on them), and
// the reader must return strtod's double bit for bit.

#include "util/number_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace routesim {
namespace {

/// The formatter every text path used before the codec, kept verbatim as
/// the reference: the first of %.1g ... %.15g that sscanf reads back
/// unchanged, else %.17g.
std::string reference_ladder(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  double parsed = 0.0;
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    if (std::sscanf(candidate, "%lf", &parsed) == 1 && parsed == value) {
      return candidate;
    }
  }
  return buffer;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t to_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

void expect_same_as_reference(double value) {
  const std::string expected = reference_ladder(value);
  ASSERT_EQ(fmt_shortest(value), expected) << "bits " << std::hex << to_bits(value);
  std::string appended = "x";
  append_shortest(appended, value);
  ASSERT_EQ(appended, "x" + expected);
}

TEST(NumberCodec, EdgeValuesMatchTheReferenceLadder) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0,      -0.0,     5e-324,   -5e-324, DBL_MIN,
                                -DBL_MIN, DBL_MAX,  -DBL_MAX, kInf,    -kInf,
                                DBL_TRUE_MIN * 3, DBL_MIN - DBL_TRUE_MIN,
                                std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0),
                                0.1,      0.7,      1.0 / 3.0, 2.0 / 3.0, 30.0,
                                100.0,    1e15,     1e16,     1e17,    123456789.0,
                                0.1 + 0.2, 1e21,    1e22,     1e23,    6.02e23,
                                9007199254740993.0, 4.35, 2.3333333333333335};
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    values.push_back(std::ldexp(1.0, exponent));
    values.push_back(-std::ldexp(1.0, exponent));
  }
  for (int exponent = -323; exponent <= 308; ++exponent) {
    values.push_back(std::strtod(("1e" + std::to_string(exponent)).c_str(), nullptr));
  }
  for (int integer = 0; integer <= 20000; ++integer) {
    values.push_back(integer);
    values.push_back(integer / 1000.0);
  }
  for (const double value : values) expect_same_as_reference(value);

  EXPECT_EQ(fmt_shortest(30.0), "3e+01");
  EXPECT_EQ(fmt_shortest(-0.0), "-0");
  EXPECT_EQ(fmt_shortest(kInf), "inf");
  EXPECT_EQ(fmt_shortest(-kInf), "-inf");
  EXPECT_EQ(fmt_shortest(std::numeric_limits<double>::quiet_NaN()),
            reference_ladder(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(fmt_shortest(-std::numeric_limits<double>::quiet_NaN()),
            reference_ladder(-std::numeric_limits<double>::quiet_NaN()));
}

TEST(NumberCodec, RandomBitPatternsMatchTheReferenceLadder) {
  // 2^20 patterns.  The reference ladder costs about 10 us on a
  // full-precision double, so the patterns are split over a few threads;
  // each reports its first mismatch (gtest assertions stay on this thread).
  constexpr int kPatterns = 1 << 20;
  const int workers =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::vector<std::string> mismatches(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t state = 20260501 + static_cast<std::uint64_t>(w);
      for (int i = w; i < kPatterns; i += workers) {
        const double value = from_bits(splitmix64(state));
        const std::string expected = reference_ladder(value);
        std::string appended = "x";
        append_shortest(appended, value);
        if (fmt_shortest(value) != expected || appended != "x" + expected) {
          char bits[32];
          std::snprintf(bits, sizeof bits, "%016llx",
                        static_cast<unsigned long long>(to_bits(value)));
          mismatches[static_cast<std::size_t>(w)] =
              std::string("bits ") + bits + ": expected " + expected + ", got " +
              fmt_shortest(value);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& mismatch : mismatches) EXPECT_EQ(mismatch, "");
}

TEST(NumberCodec, RandomShortDecimalsMatchTheReferenceLadder) {
  // Random bit patterns almost all need 17 digits; these land on every
  // rung, including the near misses where a rung's text fails to read back.
  std::uint64_t state = 7;
  char text[48];
  for (int i = 0; i < (1 << 16); ++i) {
    const int digits = 1 + static_cast<int>(splitmix64(state) % 17);
    const int exponent = static_cast<int>(splitmix64(state) % 640) - 320;
    std::uint64_t mantissa = splitmix64(state);
    std::snprintf(text, sizeof text, "%.*s%llue%d", (mantissa & 1) ? 1 : 0, "-",
                  static_cast<unsigned long long>(mantissa % 100000000000000000ull),
                  exponent);
    const double value = std::strtod(text, nullptr);
    expect_same_as_reference(value);
    // And the same digits squeezed to `digits` significant figures.
    std::snprintf(text, sizeof text, "%.*g", digits, value);
    expect_same_as_reference(std::strtod(text, nullptr));
  }
}

TEST(NumberCodec, ParseDecimalIsStrtodBitForBit) {
  const std::vector<std::string> texts = {
      "0", "-0", "1", "-1", "0.1", "1e999", "-1e999", "1e-400", "-1e-400",
      "5e-324", "2e-324", "3e-324", "2.4703282292062328e-324", "1e308", "1.8e308",
      "2.2250738585072011e-308", "4.9406564584124654e-324", "123456789012345678901234567890",
      "0.30000000000000000000000000000000000001", "9007199254740993",
      "9007199254740993.000000000000000000001", "1.00000000000000011102230246251565404236316680908203125",
      "1.7976931348623157e308", "1.7976931348623158e308", "1.797693134862315807937e308",
      "3e+01", "12.5E-3", "1E2"};
  for (const std::string& text : texts) {
    EXPECT_EQ(to_bits(parse_decimal(text)), to_bits(std::strtod(text.c_str(), nullptr)))
        << text;
  }
  EXPECT_TRUE(std::isinf(parse_decimal("1e999")));
  EXPECT_EQ(to_bits(parse_decimal("1e-400")), to_bits(0.0));
  EXPECT_EQ(to_bits(parse_decimal("-0")), to_bits(-0.0));

  std::uint64_t state = 99;
  for (int i = 0; i < (1 << 16); ++i) {
    const double value = from_bits(splitmix64(state));
    if (!std::isfinite(value)) continue;
    const std::string text = fmt_shortest(value);
    ASSERT_EQ(to_bits(parse_decimal(text)), to_bits(value)) << text;
  }
}

TEST(NumberCodec, AppendIntegerIsToString) {
  std::string out;
  append_integer(out, 0);
  append_integer(out, -17);
  append_integer(out, std::numeric_limits<std::uint64_t>::max());
  append_integer(out, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out, "0-17" + std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                     std::to_string(std::numeric_limits<std::int64_t>::min()));
}

}  // namespace
}  // namespace routesim
