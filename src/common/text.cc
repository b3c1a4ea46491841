#include "src/common/text.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>

namespace emu::text {
namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";
constexpr std::string_view kDigits = "0123456789";

struct Suffix {
  std::string_view name;
  u64 scale;
};

// Digits with an optional suffix from `suffixes`. The digits may not exceed
// max / scale, so the scaled value never passes `max` and never wraps.
Expected<u64> ParseSuffixed(std::string_view text, std::span<const Suffix> suffixes, u64 max) {
  const usize digits = std::min(text.find_first_not_of(kDigits), text.size());
  const std::string_view suffix = text.substr(digits);
  u64 scale = 1;
  if (!suffix.empty()) {
    const auto unit = std::ranges::find(suffixes, suffix, &Suffix::name);
    if (unit == suffixes.end()) {
      return InvalidArgument("bad suffix '" + std::string(suffix) + "'");
    }
    scale = unit->scale;
  }
  const Expected<u64> value = ParseU64(text.substr(0, digits), max / scale);
  if (!value.ok()) {
    return value;
  }
  return *value * scale;
}

}  // namespace

std::string_view Trim(std::string_view text) {
  const usize begin = text.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    return {};
  }
  return text.substr(begin, text.find_last_not_of(kSpace) + 1 - begin);
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  for (usize pos = text.find_first_not_of(kSpace); pos != std::string_view::npos;) {
    const usize end = std::min(text.find_first_of(kSpace, pos), text.size());
    tokens.emplace_back(text.substr(pos, end - pos));
    pos = text.find_first_not_of(kSpace, end);
  }
  return tokens;
}

std::vector<Entry> SplitEntries(std::string_view text) {
  std::vector<Entry> entries;
  for (usize line_number = 1; !text.empty(); ++line_number) {
    const usize eol = std::min(text.find('\n'), text.size());
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    // The comment goes before the ';' split, so a ';' in it starts no entry.
    line = line.substr(0, line.find('#'));
    while (true) {
      const usize semi = std::min(line.find(';'), line.size());
      const std::string_view entry = line.substr(0, semi);
      if (std::vector<std::string> tokens = Tokenize(entry); !tokens.empty()) {
        entries.push_back(Entry{line_number, Trim(entry), std::move(tokens)});
      }
      if (semi == line.size()) {
        break;
      }
      line.remove_prefix(semi + 1);
    }
  }
  return entries;
}

std::optional<KeyValue> SplitKeyValue(std::string_view token) {
  const usize eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 == token.size()) {
    return std::nullopt;
  }
  return KeyValue{std::string(token.substr(0, eq)), std::string(token.substr(eq + 1))};
}

Expected<Picoseconds> ParseTimePs(std::string_view text) {
  static constexpr Suffix kUnits[] = {{"ns", kPicosPerNano},
                                      {"us", kPicosPerMicro},
                                      {"ms", kPicosPerMilli},
                                      {"s", kPicosPerSecond}};
  const Expected<u64> ps = ParseSuffixed(text, kUnits, std::numeric_limits<Picoseconds>::max());
  if (!ps.ok()) {
    return ps.status();
  }
  return static_cast<Picoseconds>(*ps);
}

Expected<u64> ParseRate(std::string_view text) {
  static constexpr Suffix kUnits[] = {
      {"K", 1'000}, {"k", 1'000}, {"M", 1'000'000}, {"G", 1'000'000'000}};
  return ParseSuffixed(text, kUnits, ~u64{0});
}

Expected<double> ParseProbability(std::string_view text) {
  // Digits and one '.' at most, so no sign, exponent, "inf" or "nan" reaches
  // std::from_chars, which rounds the rest exactly as strtod does.
  if (text.empty() || text.find_first_not_of("0123456789.") != std::string_view::npos ||
      std::ranges::count(text, '.') > 1) {
    return InvalidArgument("not a decimal fraction");
  }
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return InvalidArgument("not a decimal fraction");
  }
  if (value > 1.0) {
    return InvalidArgument("probability above 1");
  }
  return value;
}

}  // namespace emu::text
