#include "examples/soak_harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/obs/pulse.h"
#include "src/obs/sampler.h"

namespace emu::soak {

std::string Hex(u64 value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(value));
  return hex;
}

std::optional<double> FinalMetric(const SoakRun& run, const std::string& name) {
  for (const auto& [metric, value] : run.final_metrics) {
    if (metric == name) {
      return static_cast<double>(value);
    }
  }
  return std::nullopt;
}

bool SoakHarness::ParseArgs(int argc, char** argv, std::vector<bench::Flag> flags) {
  flags.insert(flags.end(), {{"--seed", &config_.seed},
                             {"--log-dir", &config_.log_dir},
                             {"--slo", &config_.slo},
                             {"--prom", &config_.prom},
                             {"--verbose", &config_.verbose}});
  if (triple_) {
    flags.insert(flags.end(), {{"--seeds", &config_.seeds},
                               {"--threads", &config_.threads},
                               {"--sample-us", &config_.sample_us}});
  }
  if (!bench::ParseFlags(argc, argv, flags)) {
    Usage();
    return false;
  }
  if (triple_ && (config_.seeds == 0 || config_.threads == 0 || config_.sample_us == 0)) {
    Usage();
    return false;
  }
  if (!config_.log_dir.empty() && !std::filesystem::is_directory(config_.log_dir)) {
    std::fprintf(stderr, "%s: --log-dir %s is not a directory\n", name_, config_.log_dir.c_str());
    return false;
  }
  obs::SloParseResult parsed = obs::ParseSloSpec(config_.slo);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", name_, parsed.error.c_str());
    return false;
  }
  slo_ = std::move(parsed.clauses);
  return true;
}

int SoakHarness::Usage() const {
  std::printf("%s", usage_);
  return 2;
}

std::string SoakHarness::SeedRange() const {
  return "seeds=[" + std::to_string(config_.seed) + ".." +
         std::to_string(config_.seed + config_.seeds - 1) + "] threads={1," +
         std::to_string(config_.threads) + "}";
}

void SoakHarness::RunWithTelemetry(TopologyBuilder& topo, usize threads,
                                   const MetricsRegistry& registry, EventScheduler& clock,
                                   Picoseconds until, SoakRun& run) const {
  // The sampler runs on `clock`'s shard, so a registry that reads only that
  // shard's state samples bit-identically at any thread count.
  MetricsSampler sampler(registry, static_cast<Picoseconds>(config_.sample_us) * kPicosPerMicro);
  sampler.AttachRecorder(&run.series);
  sampler.SchedulePeriodic(clock, until);
  obs::RunnerPulse pulse;
  topo.runner().AttachPulse(&pulse);

  run.events = topo.Run({.threads = threads});
  run.epochs = topo.runner().epochs();
  topo.runner().AttachPulse(nullptr);

  run.final_metrics = registry.Snapshot();
  run.prom_text = registry.PrometheusText();
  run.pulse_summary_json = pulse.SummaryJson();
  run.pulse_trace_json = pulse.WallClockTraceJson();
}

std::vector<std::string> SoakHarness::JudgeTriple(
    const SoakRun& serial, const SoakRun& threads, const SoakRun& replay,
    const std::function<std::vector<std::string>()>& invariants) const {
  std::vector<std::string> violations;
  for (const SoakRun* run : {&serial, &threads, &replay}) {
    if (!run->ok) {
      violations.push_back(run->detail);
    }
  }
  if (!violations.empty()) {
    return violations;
  }
  violations = invariants();
  const std::string vs_serial = "determinism: threads=1 vs threads=" +
                                std::to_string(config_.threads);
  if (serial.digests != threads.digests) {
    violations.push_back(vs_serial + " digests diverged");
  }
  if (replay.digests != threads.digests) {
    violations.push_back("determinism: same-seed replay digests diverged");
  }
  if (serial.trace_json != threads.trace_json) {
    violations.push_back(vs_serial + " traces are not byte-identical");
  }
  if (replay.trace_json != threads.trace_json) {
    violations.push_back("determinism: replay trace is not byte-identical");
  }
  return violations;
}

void SoakHarness::PrintSeed(u64 seed, const std::string& columns, const SoakRun& run,
                            const std::vector<std::string>& violations) const {
  std::string digests;
  for (const auto& [name, value] : run.digests) {
    digests += (digests.empty() ? "" : " ") + name + "=" + Hex(value);
  }
  std::printf("seed=%llu  %s  %s  %s\n", static_cast<unsigned long long>(seed),
              columns.c_str(), digests.c_str(), violations.empty() ? "ok" : "VIOLATIONS");
  for (const std::string& v : violations) {
    std::printf("  %s\n", v.c_str());
  }
}

std::string SoakHarness::SeedText(u64 seed, const std::string& head, const SoakRun& serial,
                                  const SoakRun& threads, const SoakRun& replay,
                                  const std::string& sections,
                                  const std::vector<std::string>& violations) const {
  // One row per digest (plus the trace sizes), labels padded to one column.
  std::vector<std::pair<std::string, std::string>> rows;
  for (usize i = 0; i < threads.digests.size(); ++i) {
    // A run that failed before its digests were taken reads as zero.
    const auto digest = [i](const SoakRun& run) {
      return Hex(i < run.digests.size() ? run.digests[i].second : 0);
    };
    rows.emplace_back(threads.digests[i].first + " digest:",
                      "serial=" + digest(serial) + " threads=" + digest(threads) +
                          " replay=" + digest(replay));
  }
  if (!threads.trace_json.empty()) {
    const bool identical =
        serial.trace_json == threads.trace_json && threads.trace_json == replay.trace_json;
    rows.emplace_back("trace bytes:",
                      "serial=" + std::to_string(serial.trace_json.size()) +
                          " threads=" + std::to_string(threads.trace_json.size()) +
                          " replay=" + std::to_string(replay.trace_json.size()) +
                          " identical=" + (identical ? "yes" : "NO"));
  }
  usize width = 0;
  for (const auto& row : rows) {
    width = std::max(width, row.first.size() + 1);
  }
  std::string text = "seed " + std::to_string(seed) + "\n" + head;
  for (const auto& [label, values] : rows) {
    text += label + std::string(width - label.size(), ' ') + values + "\n";
  }
  text += sections;
  if (!violations.empty()) {
    text += "\nviolations:\n";
    for (const std::string& v : violations) {
      text += "  " + v + "\n";
    }
  }
  return text;
}

obs::SloReport SoakHarness::EvaluateSlo(const obs::SloLookup& lookup) const {
  return obs::EvaluateSlo(slo_, lookup);
}

void SoakHarness::PrintSlo(const obs::SloReport& report) const {
  if (!report.checks.empty()) {
    std::printf("%s", obs::FormatSloReport(report).c_str());
  }
}

void SoakHarness::WriteArtifacts(const std::string& stem, const std::string& text,
                                 const SoakRun& run, const obs::DashboardOptions& dashboard,
                                 const std::vector<obs::ChartSpec>& charts,
                                 const obs::SloReport& slo) const {
  if (config_.log_dir.empty()) {
    return;
  }
  if (!text.empty()) {
    WriteLog(stem + ".txt", text);
  }
  if (!run.trace_json.empty()) {
    WriteLog(stem + ".trace.json", run.trace_json);
  }
  WriteLog(stem + ".dashboard.html",
           obs::RenderSoakDashboardHtml(dashboard, run.series, charts, slo));
  WriteLog(stem + ".series.json", run.series.SeriesJson());
  if (!run.pulse_summary_json.empty()) {
    WriteLog(stem + ".pulse.json", run.pulse_summary_json);
    WriteLog(stem + ".pulse.trace.json", run.pulse_trace_json);
  }
}

void SoakHarness::WriteLog(const std::string& file, const std::string& text) const {
  if (!config_.log_dir.empty()) {
    WriteFile(config_.log_dir + "/" + file, text);
  }
}

bool SoakHarness::WriteProm(const std::string& text) const {
  if (config_.prom.empty()) {
    return true;
  }
  std::string lint_error;
  const bool clean = PrometheusLint(text, &lint_error);
  if (!clean) {
    std::printf("prom lint: %s\n", lint_error.c_str());
  }
  WriteFile(config_.prom, text);
  return clean;
}

int SoakHarness::Finish(bool all_ok) const {
  all_ok = all_ok && !write_failed_;
  std::printf("%s: %s\n", name_, all_ok ? "all invariants held" : "FAILURES");
  return all_ok ? 0 : 1;
}

void SoakHarness::WriteFile(const std::string& path, const std::string& text) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "%s: cannot write %s\n", name_, path.c_str());
    write_failed_ = true;
  }
}

}  // namespace emu::soak
