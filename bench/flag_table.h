// Table-driven command lines for the runner sweeps and the soak harness: a
// tool lists its flags with the variable each one fills, and the variable's
// type says how the value is read.
#ifndef BENCH_FLAG_TABLE_H_
#define BENCH_FLAG_TABLE_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/text.h"
#include "src/common/types.h"

namespace emu::bench {

// "1,2,4": positive decimal counts separated by single commas. Anything
// else (an empty list or entry, a zero, a sign, a space) is rejected, so a
// typo cannot turn a gate into a sweep of nothing.
inline bool ParseCountList(std::string_view list, std::vector<usize>* out) {
  std::vector<usize> values;
  while (true) {
    const usize end = std::min(list.find(','), list.size());
    const Expected<u64> value = text::ParseU64(list.substr(0, end));
    if (!value.ok() || *value == 0) {
      return false;
    }
    values.push_back(*value);
    if (end == list.size()) {
      break;
    }
    list.remove_prefix(end + 1);
  }
  *out = std::move(values);
  return true;
}

// One flag: `--name VALUE` into a count, a count list or a string, or a bare
// switch.
struct Flag {
  const char* name;
  std::variant<u64*, std::vector<usize>*, std::string*, bool*> target;
};

// Parses argv[1..] against `flags`. False on an unknown flag, a missing
// value, or a count or count list that is not plain decimal digits in range
// (text::ParseU64); the tool then prints its usage.
inline bool ParseFlags(int argc, char** argv, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const auto flag = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      return std::strcmp(f.name, argv[i]) == 0;
    });
    if (flag == flags.end()) {
      return false;
    }
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      **on = true;
    } else if (++i == argc) {
      return false;
    } else if (std::string* const* text = std::get_if<std::string*>(&flag->target)) {
      **text = argv[i];
    } else if (u64* const* count = std::get_if<u64*>(&flag->target)) {
      const Expected<u64> value = text::ParseU64(argv[i]);
      if (!value.ok()) {
        return false;
      }
      **count = *value;
    } else if (!ParseCountList(argv[i], std::get<std::vector<usize>*>(flag->target))) {
      return false;
    }
  }
  return true;
}

}  // namespace emu::bench

#endif  // BENCH_FLAG_TABLE_H_
