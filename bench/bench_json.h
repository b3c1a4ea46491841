// Minimal JSON number I/O shared by the bench tools (microbench_kernel,
// microbench_parallel) and their baseline-gate parsing.
//
// The first generation of these helpers had two quiet bugs this header
// fixes for good:
//   * the writer went through iostream formatting, whose decimal separator
//     follows the global C++ locale — a baseline written under a comma
//     locale was unreadable everywhere else;
//   * the reader used strtod (same locale trap) and the section-scoped
//     lookup matched the first '}' after the section opened, so a section
//     containing a nested object was silently truncated at the inner close
//     brace and keys after it were never found.
// Both directions now use std::to_chars/std::from_chars (locale-independent,
// round-trip exact, full JSON number grammar including exponents; the writer
// is src/common/json.h's, shared with the library) and the section scanner
// is brace-depth aware.
#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "src/common/json.h"
#include "src/common/types.h"

namespace emu::bench {

// Shortest round-trip decimal representation (may use exponent notation —
// valid JSON, and ExtractJsonNumber reads it back bit-exactly).
inline std::string FormatJsonNumber(double value) {
  std::string out;
  json::AppendNumber(out, value);
  return out;
}

// Parses the JSON number starting at text[pos] (after optional whitespace).
// Accepts the full JSON grammar: -?int[.frac][eE[+-]exp].
inline bool ParseJsonNumberAt(std::string_view text, usize pos, double* value) {
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
    ++pos;
  }
  if (pos >= text.size()) {
    return false;
  }
  const std::from_chars_result res =
      std::from_chars(text.data() + pos, text.data() + text.size(), *value);
  return res.ec == std::errc{} && res.ptr != text.data() + pos;
}

// Pulls `"key": <number>` out of a flat JSON document (first occurrence).
inline bool ExtractJsonNumber(std::string_view text, std::string_view key, double* value) {
  const std::string quoted = "\"" + std::string(key) + "\"";
  const auto pos = text.find(quoted);
  if (pos == std::string_view::npos) {
    return false;
  }
  const auto colon = text.find(':', pos + quoted.size());
  if (colon == std::string_view::npos) {
    return false;
  }
  return ParseJsonNumberAt(text, colon + 1, value);
}

// The full `{...}` object (brace-matched, so nested objects are kept) that
// follows `"section"`: — or empty view when absent/malformed.
inline std::string_view ExtractJsonSection(std::string_view text, std::string_view section) {
  const std::string quoted = "\"" + std::string(section) + "\"";
  const auto start = text.find(quoted);
  if (start == std::string_view::npos) {
    return {};
  }
  const auto open = text.find('{', start + quoted.size());
  if (open == std::string_view::npos) {
    return {};
  }
  usize depth = 0;
  for (usize i = open; i < text.size(); ++i) {
    if (text[i] == '{') {
      ++depth;
    } else if (text[i] == '}') {
      if (--depth == 0) {
        return text.substr(open, i - open + 1);
      }
    }
  }
  return {};
}

// Like ExtractJsonNumber, but scoped to one (possibly nested) section
// object. "cycles_per_sec" appears under both "exact" and "fast", so a flat
// first-match search would silently read the wrong one.
inline bool ExtractJsonNumberInSection(std::string_view text, std::string_view section,
                                       std::string_view key, double* value) {
  const std::string_view scoped = ExtractJsonSection(text, section);
  if (scoped.empty()) {
    return false;
  }
  return ExtractJsonNumber(scoped, key, value);
}

}  // namespace emu::bench

#endif  // BENCH_BENCH_JSON_H_
