// The lexical layer under every hand-written text grammar: ScenarioSpec,
// FaultPlan, the Table 2 direction commands, the §4.1 iptables CLI, SLO
// clauses and lint suppressions (DESIGN.md, "Text grammars").
//
// One comment rule: '#' starts a comment that runs to the end of the line.
// One entry rule: what is left of a line splits into entries on ';', and an
// entry into tokens on whitespace. One number rule: decimal digits only — no
// sign, no whitespace, no base prefix — and a value above the caller's bound
// is an error, never a wrap.
#ifndef SRC_COMMON_TEXT_H_
#define SRC_COMMON_TEXT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace emu::text {

// `text` without leading and trailing whitespace (space, \t, \n, \v, \f, \r).
std::string_view Trim(std::string_view text);

// The whitespace-separated tokens of `text`.
std::vector<std::string> Tokenize(std::string_view text);

// One ';'-separated entry of a line.
struct Entry {
  usize line = 0;                   // 1-based
  std::string_view text;            // trimmed, for diagnostics
  std::vector<std::string> tokens;  // never empty
};

// The entries of `text`, comments removed; entries without a token are
// skipped. Each entry's `text` views the argument, which must outlive it.
std::vector<Entry> SplitEntries(std::string_view text);

struct KeyValue {
  std::string key;
  std::string value;
};

// "key=value" split at the first '='; nullopt when either side is empty.
std::optional<KeyValue> SplitKeyValue(std::string_view token);

// A decimal number no larger than `max`. Inline: the memcached request and
// reply codecs parse their numbers with it on every frame.
inline Expected<u64> ParseU64(std::string_view text, u64 max = ~u64{0}) {
  if (text.empty()) {
    return InvalidArgument("empty number");
  }
  u64 value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgument("non-digit in number");
    }
    const u64 digit = static_cast<u64>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      return InvalidArgument("number out of range");
    }
    value = value * 10 + digit;
  }
  return value;
}

// A time in picoseconds: digits with an optional ns/us/ms/s suffix ("500us";
// bare digits are ps). At most INT64_MAX ps, so it fits Picoseconds.
Expected<Picoseconds> ParseTimePs(std::string_view text);

// A bit rate in bits/s: digits with an optional K (or k), M or G suffix
// ("10G" = 10^10).
Expected<u64> ParseRate(std::string_view text);

// A probability in [0,1]: digits with at most one '.' ("0.25", "1").
Expected<double> ParseProbability(std::string_view text);

}  // namespace emu::text

#endif  // SRC_COMMON_TEXT_H_
