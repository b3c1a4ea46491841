// Uniform lint findings: one record type, one text formatter, one JSON
// formatter, one suppression syntax, one exit-code contract — shared by
// emu_lint (static elaboration and the driven hazard pass, in one report),
// the chain runtime's findings, and the metrics exposition linter
// (PrometheusLint), so every tool in the repo emits machine-consumable
// diagnostics in the same shape.
#ifndef SRC_ANALYSIS_FINDING_H_
#define SRC_ANALYSIS_FINDING_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/analysis/hazard.h"

namespace emu {

// One diagnostic. `check` is a stable upper-case id — a CheckRegistry() name
// for hazard-taxonomy findings ("COMBLOOP"), or a tool-specific id for
// others (PrometheusLint uses "METRICSFMT"/"METRICSDUP"/...).
struct Finding {
  std::string check;
  Severity severity = Severity::kError;
  std::string design;   // design/context the finding belongs to; may be empty
  std::string subject;  // offending signal/process/series; may be empty
  std::string message;  // human-readable diagnostic

  std::string ToString() const;
};

// Builds a Finding from a hazard-taxonomy report.
Finding FindingFromReport(const HazardReport& report, const std::string& design);

// --- Suppressions ---
//
// A suppression is `CHECK` (silence the whole check) or `CHECK:pattern`
// (silence it for subjects matching `pattern`: exact match or a 'prefix*'
// wildcard). A list is comma-, semicolon- or newline-separated; '#' starts a
// comment; blanks are ignored.
struct Suppression {
  std::string check;
  std::string subject_pattern;  // empty = every subject
};

std::vector<Suppression> ParseSuppressions(const std::string& text);

// True when `s` suppresses `f`.
bool SuppressionMatches(const Suppression& s, const Finding& f);

// Removes suppressed findings; if `suppressed` is non-null it receives the
// number removed.
std::vector<Finding> ApplySuppressions(std::vector<Finding> findings,
                                       const std::vector<Suppression>& suppressions,
                                       usize* suppressed = nullptr);

// --- Formatters ---

// One finding per line: `%severity-CHECK [subject] (design): message`.
void FormatFindingsText(std::ostream& os, const std::vector<Finding>& findings);

// A JSON array of {check, severity, design, subject, message} objects
// (strings escaped), terminated with a newline.
void FormatFindingsJson(std::ostream& os, const std::vector<Finding>& findings);

usize CountErrors(const std::vector<Finding>& findings);

// --- Exit-code contract (emu_lint, and chaos_soak's --faults check) ---
//
//   0  clean: no unsuppressed Severity::kError finding
//   1  at least one unsuppressed error finding
//   2  usage/configuration error (bad flag, unparsable plan, unreadable file)
inline constexpr int kLintExitClean = 0;
inline constexpr int kLintExitFindings = 1;
inline constexpr int kLintExitUsage = 2;

// kLintExitFindings when `findings` contains an error, else kLintExitClean.
// Warnings and infos never fail the run (CI gates on errors; warnings are
// for humans and dashboards).
int LintExitCode(const std::vector<Finding>& findings);

}  // namespace emu

#endif  // SRC_ANALYSIS_FINDING_H_
