#pragma once
/// \file number_codec.hpp
/// \brief The one exact decimal codec for doubles: every text format the
///        library writes (scenario text, store records, serve replies,
///        campaign JSONL, trace files) formats numbers here, and the JSON
///        reader converts them back here.
///
/// The written form is an on-disk format, not a display choice: store keys
/// are scenario text, and trace-file bytes are fingerprinted into cache
/// keys, so a changed digit would orphan every persisted record.  It is
/// the first of `%.1g`, `%.3g`, `%.6g`, `%.9g`, `%.12g`, `%.15g` whose text
/// reads back as the identical double, else `%.17g` (always exact) — not
/// the shortest round-trip decimal: 30 is written `3e+01`, and a value
/// needing 16 digits gets 17.  Non-finite values keep printf's `%.17g`
/// spelling (inf, -inf, nan, -nan).

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>

namespace routesim {

/// Room shortest_chars() may use; the longest finite form is 24 chars.
inline constexpr std::size_t kShortestChars = 32;

/// Writes the exact decimal form of `value` (see the file comment) into
/// `first[0, kShortestChars)`, unterminated, and returns one past its end.
char* shortest_chars(char* first, double value);

/// Appends the exact decimal form of `value` to `out`.
void append_shortest(std::string& out, double value);

/// The exact decimal form of `value` as a string.
[[nodiscard]] std::string fmt_shortest(double value);

/// Appends the decimal form of an integer (std::to_string's text).
template <class Integer>
void append_integer(std::string& out, Integer value) {
  char buffer[24];
  const char* const end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

/// The double nearest to a JSON number `text` (the caller has checked the
/// grammar), bit-identical to strtod: out-of-range magnitudes read as
/// +-inf or a correctly rounded subnormal/zero, not as an error.
[[nodiscard]] double parse_decimal(std::string_view text);

}  // namespace routesim
