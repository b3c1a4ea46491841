// JSON text output: the one string escaper and the one number formatter
// behind every JSON document the repo writes — Perfetto traces, the pulse
// profile, lint findings, time series, soak dashboards and the bench
// reports. (The dashboard's inline-script strings keep their own
// script-safe escaper.)
//
// Both are byte-stable contracts: the trace byte-compare suites and the
// committed golden trace depend on the escaping rules, and the bench
// baseline gates read numbers back with std::from_chars. Numbers go through
// std::to_chars, so the output never follows the global C++ locale.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

namespace emu::json {

// `text` as a quoted JSON string: '"' and '\\' are backslash-escaped,
// \n \t \r use their short forms, and every other control byte becomes
// \u00XX. Bytes >= 0x20 (UTF-8 included) pass through unchanged.
inline void AppendString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// The shortest decimal that reads back as exactly `value` (may use exponent
// notation, which is valid JSON).
inline void AppendNumber(std::string& out, double value) {
  char buf[64];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), value);
  if (res.ec != std::errc{}) {
    out += '0';
    return;
  }
  out.append(buf, res.ptr);
}

}  // namespace emu::json

#endif  // SRC_COMMON_JSON_H_
