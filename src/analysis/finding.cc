#include "src/analysis/finding.h"

#include <ostream>
#include <sstream>

#include "src/common/json.h"
#include "src/common/text.h"

namespace emu {

namespace {

// Exact match, or 'prefix*' wildcard (same convention as FaultPlan patterns).
bool SubjectMatches(const std::string& pattern, const std::string& subject) {
  if (pattern.empty()) {
    return true;
  }
  if (!pattern.empty() && pattern.back() == '*') {
    return subject.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0;
  }
  return subject == pattern;
}

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream os;
  os << "%" << SeverityName(severity) << "-" << check;
  if (!subject.empty()) {
    os << " [" << subject << "]";
  }
  if (!design.empty()) {
    os << " (" << design << ")";
  }
  os << ": " << message;
  return os.str();
}

Finding FindingFromReport(const HazardReport& report, const std::string& design) {
  Finding f;
  f.check = HazardKindName(report.kind);
  f.severity = report.severity;
  f.design = design;
  f.subject = !report.signal.empty() ? report.signal : report.process;
  f.message = report.message;
  return f;
}

std::vector<Suppression> ParseSuppressions(const std::string& text) {
  std::vector<Suppression> out;
  std::string token;
  auto flush = [&] {
    const std::string t(text::Trim(token));
    token.clear();
    if (t.empty() || t[0] == '#') {
      return;
    }
    Suppression s;
    const usize colon = t.find(':');
    if (colon == std::string::npos) {
      s.check = t;
    } else {
      s.check = t.substr(0, colon);
      s.subject_pattern = t.substr(colon + 1);
    }
    out.push_back(std::move(s));
  };
  bool in_comment = false;
  for (char c : text) {
    if (c == '\n') {
      in_comment = false;
      flush();
    } else if (in_comment) {
      continue;
    } else if (c == '#') {
      in_comment = true;  // comment runs to end of line
    } else if (c == ',' || c == ';') {
      flush();
    } else {
      token.push_back(c);
    }
  }
  flush();
  return out;
}

bool SuppressionMatches(const Suppression& s, const Finding& f) {
  return s.check == f.check && SubjectMatches(s.subject_pattern, f.subject);
}

std::vector<Finding> ApplySuppressions(std::vector<Finding> findings,
                                       const std::vector<Suppression>& suppressions,
                                       usize* suppressed) {
  if (suppressed != nullptr) {
    *suppressed = 0;
  }
  if (suppressions.empty()) {
    return findings;
  }
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& f : findings) {
    bool drop = false;
    for (const auto& s : suppressions) {
      if (SuppressionMatches(s, f)) {
        drop = true;
        break;
      }
    }
    if (drop) {
      if (suppressed != nullptr) {
        ++*suppressed;
      }
    } else {
      kept.push_back(std::move(f));
    }
  }
  return kept;
}

void FormatFindingsText(std::ostream& os, const std::vector<Finding>& findings) {
  for (const auto& f : findings) {
    os << f.ToString() << "\n";
  }
}

void FormatFindingsJson(std::ostream& os, const std::vector<Finding>& findings) {
  std::string out = "[";
  for (usize i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n  {\"check\": " : ",\n  {\"check\": ";
    json::AppendString(out, f.check);
    out += ", \"severity\": \"";
    out += SeverityName(f.severity);
    out += "\", \"design\": ";
    json::AppendString(out, f.design);
    out += ", \"subject\": ";
    json::AppendString(out, f.subject);
    out += ", \"message\": ";
    json::AppendString(out, f.message);
    out += '}';
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  os << out;
}

usize CountErrors(const std::vector<Finding>& findings) {
  usize errors = 0;
  for (const auto& f : findings) {
    if (f.severity == Severity::kError) {
      ++errors;
    }
  }
  return errors;
}

int LintExitCode(const std::vector<Finding>& findings) {
  return CountErrors(findings) > 0 ? kLintExitFindings : kLintExitClean;
}

}  // namespace emu
