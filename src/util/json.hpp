#pragma once
/// \file json.hpp
/// \brief Minimal JSON string escaping, shared by every hand-rolled JSON
///        emitter (core/catalog.cpp, the campaign JSONL sink, the store and
///        the serve protocol).

#include <cstdio>
#include <string>
#include <string_view>

namespace routesim {

/// Appends `text` escaped for inclusion inside a JSON string literal:
/// quotes, backslashes, and *all* control characters below 0x20 (strict
/// parsers reject raw control bytes, not just unescaped newlines).  Runs
/// that need no escaping are appended whole.
inline void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    }
  }
  out.append(text.data() + run, text.size() - run);
}

/// `text` escaped for inclusion inside a JSON string literal (see
/// append_json_escaped()).
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

}  // namespace routesim
