#include "src/obs/slo.h"

#include <charconv>
#include <cstdio>

#include "src/common/text.h"
#include "src/core/metrics.h"

namespace emu::obs {
namespace {

bool ValidMetricName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == ':';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

SloParseResult ParseSloSpec(std::string_view spec) {
  SloParseResult result;
  usize ordinal = 0;
  usize pos = 0;
  while (pos <= spec.size()) {
    usize end = pos;
    while (end < spec.size() && spec[end] != ';' && spec[end] != '\n') {
      ++end;
    }
    const std::string_view raw = text::Trim(spec.substr(pos, end - pos));
    pos = end + 1;
    if (raw.empty()) {
      if (end >= spec.size()) {
        break;
      }
      continue;  // empty clause between separators: tolerated
    }
    ++ordinal;
    const auto fail = [&](const std::string& what) {
      result.ok = false;
      result.error = "slo clause " + std::to_string(ordinal) + ": " + what + " in \"" +
                     std::string(raw) + "\"";
    };
    usize op = raw.find("<=");
    bool less_equal = true;
    if (op == std::string_view::npos) {
      op = raw.find(">=");
      less_equal = false;
    }
    if (op == std::string_view::npos) {
      fail("expected \"<=\" or \">=\"");
      return result;
    }
    const std::string_view metric = text::Trim(raw.substr(0, op));
    if (!ValidMetricName(metric)) {
      fail("bad metric name");
      return result;
    }
    const std::string_view number = text::Trim(raw.substr(op + 2));
    double bound = 0.0;
    const std::from_chars_result parsed =
        std::from_chars(number.data(), number.data() + number.size(), bound);
    if (parsed.ec != std::errc{} || parsed.ptr != number.data() + number.size() ||
        number.empty()) {
      fail("bad bound");
      return result;
    }
    SloClause clause;
    clause.metric = std::string(metric);
    clause.less_equal = less_equal;
    clause.bound = bound;
    clause.text = std::string(raw);
    result.clauses.push_back(std::move(clause));
    if (end >= spec.size()) {
      break;
    }
  }
  return result;
}

SloReport EvaluateSlo(const std::vector<SloClause>& clauses, const SloLookup& lookup) {
  SloReport report;
  for (const SloClause& clause : clauses) {
    SloCheck check;
    check.clause = clause;
    const std::optional<double> value = lookup(clause.metric);
    if (!value.has_value()) {
      check.missing = true;
      check.ok = false;
    } else {
      check.observed = *value;
      check.ok = clause.less_equal ? *value <= clause.bound : *value >= clause.bound;
    }
    report.ok = report.ok && check.ok;
    report.checks.push_back(std::move(check));
  }
  return report;
}

SloLookup MakeRegistryLookup(const MetricsRegistry& registry) {
  return [&registry](const std::string& name) -> std::optional<double> {
    const std::optional<u64> value = registry.TryGet(name);
    if (!value.has_value()) {
      return std::nullopt;
    }
    return static_cast<double>(*value);
  };
}

std::string FormatSloReport(const SloReport& report) {
  std::string out;
  char line[256];
  for (const SloCheck& check : report.checks) {
    if (check.missing) {
      std::snprintf(line, sizeof(line), "  %s  %s  (metric missing)\n",
                    check.ok ? "PASS" : "FAIL", check.clause.text.c_str());
    } else {
      std::snprintf(line, sizeof(line), "  %s  %s  observed=%g\n", check.ok ? "PASS" : "FAIL",
                    check.clause.text.c_str(), check.observed);
    }
    out += line;
  }
  out += report.ok ? "slo: all clauses pass\n" : "slo: BREACH\n";
  return out;
}

}  // namespace emu::obs
