// MetricsRegistry: the canonical telemetry surface of a deployment.
//
// Every service accumulates operational counters (frames encrypted, queries
// resolved, NAT rejects, ...). Historically each grew a bespoke getter and
// every harness hard-coded the ones it knew about. The registry replaces
// that N×M wiring: a service registers its metrics once by dotted name
// (`Service::RegisterMetrics`), and any consumer — examples, the chaos
// harness, the CASP debug controller (DirectionController::AttachMetrics),
// the MetricsSampler — enumerates or reads them uniformly.
//
// Three kinds (emu-scope):
//   - counter: monotonically increasing u64 (the original kind).
//   - gauge: a u64 that may go up or down (live processes, queue depth).
//   - histogram: a log2-bucketed `Histogram` distribution. A histogram also
//     exposes derived scalar views — `<name>.count`, `<name>.sum`,
//     `<name>.p50`, `<name>.p99` — through Snapshot/Get/TryGet, so scalar
//     consumers (the CASP bridge binds every snapshot name as a variable)
//     read distribution stats with no histogram-specific code.
//
// Registered sources are non-owning: a `const u64*` points at the counter
// member itself, a getter closure computes derived values, a
// `const Histogram*` points at the live distribution. Either must outlive
// the registry reads.
//
// `PrometheusText()` renders the registry in Prometheus text exposition
// format (counters, gauges, and full `_bucket`/`_sum`/`_count` histogram
// series); `PrometheusLint()` is a promtool-style checker used by tests and
// drivers to keep the exposition scrape-valid.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/finding.h"
#include "src/common/types.h"
#include "src/core/histogram.h"

namespace emu {

enum class MetricKind : u8 {
  kCounter,
  kGauge,
  kHistogram,
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers counter `name` (dotted, e.g. "nat.translated_out") backed by
  // the counter variable itself. Re-registering a name replaces the source
  // (a re-instantiated service keeps one entry).
  void Register(const std::string& name, const u64* source);

  // Same, for derived/computed values.
  void Register(const std::string& name, std::function<u64()> getter);

  // A value that may decrease (occupancy, live process count).
  void RegisterGauge(const std::string& name, const u64* source);
  void RegisterGauge(const std::string& name, std::function<u64()> getter);

  // A live distribution. Scalar reads of `name` see its count; Snapshot
  // additionally expands `<name>.count/.sum/.p50/.p99`.
  void RegisterHistogram(const std::string& name, const Histogram* histogram);

  bool Has(const std::string& name) const;

  // Current value of `name`; 0 for unknown names (a metric that never
  // existed reads like one that never incremented). Prefer TryGet when the
  // caller must distinguish "absent" from 0.
  u64 Get(const std::string& name) const;

  // Current value of `name`, or nullopt when no such metric (nor derived
  // histogram view) is registered.
  std::optional<u64> TryGet(const std::string& name) const;

  // Kind of an exactly-registered metric (derived histogram views resolve
  // to their parent's kind); nullopt for unknown names.
  std::optional<MetricKind> Kind(const std::string& name) const;

  // The registered histogram, or nullptr when `name` is not a histogram.
  const Histogram* GetHistogram(const std::string& name) const;

  usize size() const { return entries_.size(); }

  // Name/value pairs in registration order; histograms expand to their four
  // derived scalar views.
  std::vector<std::pair<std::string, u64>> Snapshot() const;

  // "name=value" lines, one per metric, in registration order.
  std::string Format() const;

  // Prometheus text exposition (https://prometheus.io/docs/instrumenting/
  // exposition_formats/): dotted names sanitized to [a-zA-Z0-9_:], one
  // `# TYPE` line per metric, histogram series with cumulative `_bucket`
  // samples, `_sum` and `_count`.
  std::string PrometheusText() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::function<u64()> getter;
    const Histogram* histogram = nullptr;
  };

  void Upsert(Entry entry);
  const Entry* FindEntry(const std::string& name) const;

  std::vector<Entry> entries_;
};

// promtool-style validation of a Prometheus text exposition: name syntax,
// one TYPE per metric and before its samples, numeric sample values, and
// histogram invariants (cumulative non-decreasing buckets, increasing `le`
// bounds, `+Inf` bucket present and equal to `_count`, `_sum` present).
// Returns EVERY violation (not just the first) as shared Finding records so
// the diagnostics route through the same text/JSON formatters as emu_lint.
// Check ids: METRICSFMT (syntax), METRICSDUP (duplicate or misplaced TYPE),
// METRICSHIST (histogram invariants); all Severity::kError.
std::vector<Finding> PrometheusLintFindings(const std::string& text);

// Convenience wrapper: true when the text scrapes clean; otherwise fills
// `error` with the first finding's message.
bool PrometheusLint(const std::string& text, std::string* error);

}  // namespace emu

#endif  // SRC_CORE_METRICS_H_
