// The soak harness: the plumbing chain_soak, gossip_soak and chaos_soak share.
//
// A soak supplies its workload (RunOnce), its invariants, its dashboard
// charts, its .txt sections and its seed-line columns. The harness owns the
// rest:
//   - the shared flags: --seed, --log-dir, --slo, --prom and --verbose, and
//     for the soaks that run the triple below --seeds, --threads and
//     --sample-us;
//   - the SLO gate: parsed before any run (a malformed clause exits 2),
//     evaluated and reported after it;
//   - the bit-exact oracle of the per-seed triple — threads=1, threads=T and
//     a same-seed threads=T replay: run failures, the soak's invariants on
//     the threads run, then the named-digest and trace byte comparisons;
//   - run telemetry: a MetricsSampler into the run's bounded series, the
//     runner's RunnerPulse, the end-of-run snapshot and Prometheus text;
//   - the --log-dir artifacts and the linted --prom file.
#ifndef EXAMPLES_SOAK_HARNESS_H_
#define EXAMPLES_SOAK_HARNESS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/flag_table.h"
#include "src/common/types.h"
#include "src/core/metrics.h"
#include "src/obs/dashboard.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"
#include "src/sim/topology.h"

namespace emu::soak {

// The shared flags.
struct SoakConfig {
  u64 seed = 1;           // --seed: the first seed
  u64 seeds = 1;          // --seeds
  u64 threads = 4;        // --threads: T of the triple
  u64 sample_us = 0;      // --sample-us: in-run telemetry interval
  std::string log_dir{};  // --log-dir: must already exist
  std::string slo{};      // --slo CLAUSES
  std::string prom{};     // --prom FILE
  bool verbose = false;   // --verbose
};

// What the harness reads from one run. A soak's outcome derives from it and
// adds what its invariants and report need.
struct SoakRun {
  explicit SoakRun(usize series_capacity) : series(series_capacity) {}

  bool ok = true;
  std::string detail;  // why the run failed
  u64 events = 0;
  u64 epochs = 0;
  // Named digests ("chain", "log"), compared across the triple in order.
  std::vector<std::pair<std::string, u64>> digests;
  // The deterministic trace: byte-compared across the triple and written to
  // --log-dir, when non-empty.
  std::string trace_json;
  // Host-time telemetry; never compared.
  obs::TimeSeriesRecorder series;
  std::vector<std::pair<std::string, u64>> final_metrics;  // end-of-run snapshot
  std::string prom_text;
  std::string pulse_summary_json;  // the runner's per-shard/per-epoch profile
  std::string pulse_trace_json;    // its wall-clock Chrome trace
};

// `value` as 16 hex digits, the form every digest prints in.
std::string Hex(u64 value);

// `name` in the run's end-of-run snapshot, for SLO lookups.
std::optional<double> FinalMetric(const SoakRun& run, const std::string& name);

class SoakHarness {
 public:
  // `name` prefixes diagnostics; `usage` is printed on a bad command line.
  // A `triple` soak runs each seed three times and takes --seeds, --threads
  // and --sample-us; any other soak rejects them.
  SoakHarness(const char* name, const char* usage, bool triple, SoakConfig defaults)
      : name_(name), usage_(usage), triple_(triple), config_(std::move(defaults)) {}

  // Parses argv into the shared flags and the soak's `own`. Prints the usage
  // on an unknown flag, a missing value or a malformed or zero count, and an
  // error for a --log-dir that is not a directory or a malformed --slo
  // clause, so a bad gate fails before any run. False means exit 2.
  bool ParseArgs(int argc, char** argv, std::vector<bench::Flag> own);

  // Prints the usage; returns the exit code 2.
  int Usage() const;

  const SoakConfig& config() const { return config_; }

  // "seeds=[first..last] threads={1,T}" for the soak's banner.
  std::string SeedRange() const;

  // Runs `topo` at `threads` with the run telemetry attached: `registry` is
  // sampled on `clock` every --sample-us up to `until`, and the runner's
  // pulse records every epoch. Fills the run's events, epochs, series,
  // end-of-run snapshot, Prometheus text and pulse JSON.
  void RunWithTelemetry(TopologyBuilder& topo, usize threads, const MetricsRegistry& registry,
                        EventScheduler& clock, Picoseconds until, SoakRun& run) const;

  // The oracle over one seed's triple. A failed run reports its detail and
  // nothing else is judged. Otherwise `invariants` (checked on the threads
  // run) come first, then every digest and the trace of the threads run
  // against the serial run and against the replay.
  std::vector<std::string> JudgeTriple(
      const SoakRun& serial, const SoakRun& threads, const SoakRun& replay,
      const std::function<std::vector<std::string>()>& invariants) const;

  // "seed=N  <columns>  <name>=<digest>...  ok|VIOLATIONS", then one
  // indented line per violation.
  void PrintSeed(u64 seed, const std::string& columns, const SoakRun& run,
                 const std::vector<std::string>& violations) const;

  // The seed's .txt artifact: "seed N", the soak's `head` lines, each digest
  // (and the trace size) across the triple, the soak's `sections`, and the
  // violations.
  std::string SeedText(u64 seed, const std::string& head, const SoakRun& serial,
                       const SoakRun& threads, const SoakRun& replay,
                       const std::string& sections,
                       const std::vector<std::string>& violations) const;

  obs::SloReport EvaluateSlo(const obs::SloLookup& lookup) const;
  // Prints the clause report; nothing when --slo is unset.
  void PrintSlo(const obs::SloReport& report) const;

  // Writes `run`'s artifacts as <log-dir>/<stem>.*: .txt (when `text` is
  // non-empty), .trace.json (when the run has a trace), .dashboard.html,
  // .series.json, and .pulse.json + .pulse.trace.json (when the runner was
  // profiled). Nothing without --log-dir.
  void WriteArtifacts(const std::string& stem, const std::string& text, const SoakRun& run,
                      const obs::DashboardOptions& dashboard,
                      const std::vector<obs::ChartSpec>& charts,
                      const obs::SloReport& slo) const;
  // Writes <log-dir>/<file>; nothing without --log-dir.
  void WriteLog(const std::string& file, const std::string& text) const;

  // Lints `text` and writes it to --prom. False on a lint error; true (and
  // nothing written) without --prom.
  bool WriteProm(const std::string& text) const;

  // Prints "<name>: all invariants held" or "<name>: FAILURES"; returns the
  // exit code. A failed --log-dir or --prom write is a failure.
  int Finish(bool all_ok) const;

 private:
  // Writes `text` to `path`; on failure warns on stderr and marks the run
  // failed.
  void WriteFile(const std::string& path, const std::string& text) const;

  const char* name_;
  const char* usage_;
  bool triple_;
  SoakConfig config_;
  std::vector<obs::SloClause> slo_;
  mutable bool write_failed_ = false;
};

}  // namespace emu::soak

#endif  // EXAMPLES_SOAK_HARNESS_H_
