#include "src/fault/fault_plan.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/common/text.h"

namespace emu {
namespace {

constexpr const char* kFaultClassNames[kFaultClassCount] = {
    "LINK_DROP",   "LINK_CORRUPT", "LINK_DUPLICATE",   "LINK_REORDER",  "LINK_DELAY",
    "SEU_BITFLIP", "FIFO_STALL",   "TABLE_EXHAUSTION", "CHECKSUM_FOLD", "HOST_CRASH",
    "HOST_RESTART", "PARTITION",
};

// Stores a parsed value in `out`; false when `parsed` is an error.
template <typename T>
bool Store(const Expected<T>& parsed, T& out) {
  if (!parsed.ok()) {
    return false;
  }
  out = *parsed;
  return true;
}

// "{h0,h1}" (braces optional) into its comma-separated member names.
bool ParseGroup(const std::string& text, std::vector<std::string>& out) {
  std::string inner = text;
  if (!inner.empty() && inner.front() == '{') {
    if (inner.back() != '}') {
      return false;
    }
    inner = inner.substr(1, inner.size() - 2);
  }
  std::istringstream members(inner);
  std::string member;
  while (std::getline(members, member, ',')) {
    if (member.empty()) {
      return false;
    }
    out.push_back(member);
  }
  return !out.empty();
}

}  // namespace

const char* FaultClassName(FaultClass cls) {
  return kFaultClassNames[static_cast<usize>(cls)];
}

std::string FaultSchedule::ToString() const {
  // The probability in fixed notation, a form the plan grammar reads back (%g
  // would print 0.00001 as 1e-05). 400 digits hold any value in [0, 1].
  char p[400];
  *std::to_chars(p, p + sizeof(p) - 1, probability, std::chars_format::fixed).ptr = '\0';
  char buffer[sizeof(p) + 64];
  switch (mode) {
    case Mode::kDisabled:
      return "disabled";
    case Mode::kOneShot:
      std::snprintf(buffer, sizeof(buffer), "oneshot %llu",
                    static_cast<unsigned long long>(at));
      break;
    case Mode::kBernoulli:
      std::snprintf(buffer, sizeof(buffer), "bernoulli %s", p);
      break;
    case Mode::kBurst:
      std::snprintf(buffer, sizeof(buffer), "burst %llu %llu %s",
                    static_cast<unsigned long long>(from),
                    static_cast<unsigned long long>(until), p);
      break;
  }
  std::string text = buffer;
  if (magnitude != 0) {
    std::snprintf(buffer, sizeof(buffer), " %llu",
                  static_cast<unsigned long long>(magnitude));
    text += buffer;
  }
  return text;
}

std::string FaultEvent::ToString() const {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "@%llu ", static_cast<unsigned long long>(tick));
  std::string text = buffer;
  text += FaultClassName(cls);
  text += " [" + site + "]";
  std::snprintf(buffer, sizeof(buffer), " detail=%llu",
                static_cast<unsigned long long>(detail));
  text += buffer;
  return text;
}

std::string TopoFault::ToString() const {
  std::string text;
  const auto join = [](const std::vector<std::string>& group) {
    std::string joined = "{";
    for (usize i = 0; i < group.size(); ++i) {
      joined += (i == 0 ? "" : ",") + group[i];
    }
    return joined + "}";
  };
  switch (kind) {
    case Kind::kCrash:
      text = "crash host=" + host + " at=" + std::to_string(at);
      break;
    case Kind::kRestart:
      text = "restart host=" + host + " at=" + std::to_string(at);
      break;
    case Kind::kPartition:
      text = "partition " + join(group_a) + "|" + join(group_b) +
             " from=" + std::to_string(from) + " to=" + std::to_string(until);
      if (oneway) {
        text += " oneway";
      }
      break;
  }
  return text;
}

bool FaultPatternMatches(const std::string& pattern, const std::string& name) {
  if (!pattern.empty() && pattern.back() == '*') {
    return name.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0;
  }
  return pattern == name;
}

Expected<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  usize line_number = 0;
  std::string_view entry;
  auto fail = [&](const std::string& what) {
    return InvalidArgument("fault plan line " + std::to_string(line_number) + ": " + what +
                           ": " + std::string(entry));
  };
  // A magnitude may be a delay in ps, so it must fit Picoseconds (and
  // magnitude + 1, the jitter draw's bound, must not wrap to 0).
  constexpr u64 kMaxMagnitude = std::numeric_limits<Picoseconds>::max();
  // ';' separates entries so that a plan fits one CLI argument; each entry
  // reports the line it sits on.
  for (const text::Entry& parsed_entry : text::SplitEntries(text)) {
    line_number = parsed_entry.line;
    entry = parsed_entry.text;
    const std::vector<std::string>& tokens = parsed_entry.tokens;
    if (tokens.size() < 2) {
      return fail("entry needs '<point> <mode> ...'");
    }
    // Topology-scoped events: `crash`/`restart`/`partition` statements.
    if (tokens[0] == "crash" || tokens[0] == "restart") {
      TopoFault topo;
      topo.kind = tokens[0] == "crash" ? TopoFault::Kind::kCrash : TopoFault::Kind::kRestart;
      topo.line = line_number;
      bool have_at = false;
      for (usize i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = text::SplitKeyValue(tokens[i]).value_or(text::KeyValue{});
        if (key == "host") {
          topo.host = value;
        } else if (key == "at") {
          const Expected<Picoseconds> at = text::ParseTimePs(value);
          if (!at.ok()) {
            return fail("bad time operand '" + value + "' (ps, or ns/us/ms/s suffix)");
          }
          topo.at = static_cast<u64>(*at);
          have_at = true;
        } else {
          return fail("unknown operand '" + tokens[i] + "' (expected host=<h> at=<t>)");
        }
      }
      if (topo.host.empty() || !have_at) {
        return fail(tokens[0] + " needs 'host=<h> at=<t>'");
      }
      for (const TopoFault& existing : plan.topo_events) {
        if (existing.kind == topo.kind && existing.host == topo.host &&
            existing.at == topo.at) {
          return fail("duplicate " + tokens[0] + " of host '" + topo.host +
                      "' at the same tick");
        }
      }
      plan.topo_events.push_back(std::move(topo));
      continue;
    }
    if (tokens[0] == "partition") {
      TopoFault topo;
      topo.kind = TopoFault::Kind::kPartition;
      topo.line = line_number;
      bool have_from = false;
      bool have_to = false;
      bool have_groups = false;
      for (usize i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = text::SplitKeyValue(tokens[i]).value_or(text::KeyValue{});
        if (tokens[i] == "oneway") {
          topo.oneway = true;
        } else if (key == "from" || key == "to") {
          const Expected<Picoseconds> at = text::ParseTimePs(value);
          if (!at.ok()) {
            return fail("bad time operand '" + value + "'");
          }
          (key == "from" ? topo.from : topo.until) = static_cast<u64>(*at);
          (key == "from" ? have_from : have_to) = true;
        } else if (tokens[i].find('|') != std::string::npos) {
          const usize bar = tokens[i].find('|');
          if (have_groups || !ParseGroup(tokens[i].substr(0, bar), topo.group_a) ||
              !ParseGroup(tokens[i].substr(bar + 1), topo.group_b)) {
            return fail("bad partition groups '" + tokens[i] +
                        "' (expected {a,b}|{c,d}, both sides non-empty)");
          }
          have_groups = true;
        } else {
          return fail("unknown operand '" + tokens[i] +
                      "' (expected {A}|{B} from=<t> to=<t> [oneway])");
        }
      }
      if (!have_groups || !have_from || !have_to) {
        return fail("partition needs '{A}|{B} from=<t> to=<t>'");
      }
      if (topo.from >= topo.until) {
        return fail("partition window needs from < to");
      }
      for (const std::string& a : topo.group_a) {
        for (const std::string& b : topo.group_b) {
          if (a == b) {
            return fail("host '" + a + "' appears on both sides of the partition");
          }
        }
      }
      plan.topo_events.push_back(std::move(topo));
      continue;
    }
    FaultPlanEntry parsed;
    parsed.pattern = tokens[0];
    for (const FaultPlanEntry& existing : plan.entries) {
      if (existing.pattern == parsed.pattern) {
        return fail("duplicate point entry '" + parsed.pattern +
                    "' (one schedule per point; the plans would silently race)");
      }
    }
    const std::string& mode = tokens[1];
    usize next = 2;  // first operand after the mode
    if (mode == "oneshot") {
      if (tokens.size() < 3 || !Store(text::ParseU64(tokens[2]), parsed.schedule.at)) {
        return fail("oneshot needs a tick");
      }
      parsed.schedule.mode = FaultSchedule::Mode::kOneShot;
      next = 3;
    } else if (mode == "bernoulli") {
      if (tokens.size() < 3 ||
          !Store(text::ParseProbability(tokens[2]), parsed.schedule.probability)) {
        return fail("bernoulli needs a probability in [0,1]");
      }
      parsed.schedule.mode = FaultSchedule::Mode::kBernoulli;
      next = 3;
    } else if (mode == "burst") {
      if (tokens.size() < 5 || !Store(text::ParseU64(tokens[2]), parsed.schedule.from) ||
          !Store(text::ParseU64(tokens[3]), parsed.schedule.until) ||
          !Store(text::ParseProbability(tokens[4]), parsed.schedule.probability) ||
          parsed.schedule.from >= parsed.schedule.until) {
        return fail("burst needs '<from> <until> <p>' with from < until");
      }
      parsed.schedule.mode = FaultSchedule::Mode::kBurst;
      next = 5;
    } else {
      return fail("unknown schedule mode '" + mode + "'");
    }
    if (tokens.size() > next) {
      if (tokens.size() > next + 1 ||
          !Store(text::ParseU64(tokens[next], kMaxMagnitude), parsed.schedule.magnitude)) {
        return fail("trailing operand must be a single magnitude");
      }
    }
    plan.entries.push_back(std::move(parsed));
  }
  return plan;
}

}  // namespace emu
