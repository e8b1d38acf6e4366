#include "util/number_codec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace routesim {

char* shortest_chars(char* first, double value) {
  char* const last = first + kShortestChars;
  if (!std::isfinite(value)) {
    return first + std::snprintf(first, kShortestChars, "%.17g", value);
  }
  // A rung with fewer significant digits than the shortest round-trip form
  // cannot read back as `value`, so the ladder starts at the first rung
  // that can; each remaining rung is still checked, because the correctly
  // rounded P-digit text need not be the P-digit text that round-trips.
  const char* const shortest_end =
      std::to_chars(first, last, value, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = first; c != shortest_end && *c != 'e'; ++c) {
    digits += (*c >= '0' && *c <= '9') ? 1 : 0;
  }
  for (const int precision : {1, 3, 6, 9, 12, 15}) {
    if (precision < digits) continue;
    char* const end =
        std::to_chars(first, last, value, std::chars_format::general, precision).ptr;
    if (parse_decimal(std::string_view(first, static_cast<std::size_t>(end - first))) ==
        value) {
      return end;
    }
  }
  return std::to_chars(first, last, value, std::chars_format::general, 17).ptr;
}

void append_shortest(std::string& out, double value) {
  char buffer[kShortestChars];
  out.append(buffer, static_cast<std::size_t>(shortest_chars(buffer, value) - buffer));
}

std::string fmt_shortest(double value) {
  char buffer[kShortestChars];
  return std::string(buffer, static_cast<std::size_t>(shortest_chars(buffer, value) - buffer));
}

double parse_decimal(std::string_view text) {
  double value = 0.0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec ==
      std::errc::result_out_of_range) {
    // from_chars reports magnitudes past the double range instead of
    // rounding them; strtod's answer (+-inf, a subnormal or zero) is the
    // one every earlier reader of these files produced.
    return std::strtod(std::string(text).c_str(), nullptr);
  }
  return value;
}

}  // namespace routesim
