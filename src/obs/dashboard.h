// Soak dashboard (emu-pulse): a self-contained, single-file HTML report.
//
// No external dependencies by design — no CDN scripts, no fonts, no fetch:
// the series JSON is embedded in the page and a small inline script renders
// SVG polyline charts, so the artifact opens anywhere (CI artifact viewer,
// file:// on a laptop) and never goes stale when a CDN does.
//
// Chart selection is caller-driven: each ChartSpec names the registry
// metrics it plots (exact names, including histogram derived views like
// "chain.source.rtt_us.p99"). `rate` charts plot the per-second derivative
// of cumulative counters (throughput from a monotone counter series).
#ifndef SRC_OBS_DASHBOARD_H_
#define SRC_OBS_DASHBOARD_H_

#include <string>
#include <vector>

#include "src/obs/slo.h"
#include "src/obs/timeseries.h"

namespace emu::obs {

struct ChartSpec {
  std::string title;
  std::string unit;                  // y-axis label, e.g. "us", "frames/s"
  std::vector<std::string> metrics;  // exact series names to plot
  bool rate = false;                 // plot d(value)/dt per second instead of raw
};

struct DashboardOptions {
  std::string title = "emu soak dashboard";
  std::string subtitle;  // e.g. "chain_soak seed=1 threads=4"
};

// Renders the dashboard: header, SLO result table (omitted when `slo` has
// no checks), one SVG chart per spec (specs whose metrics have no points
// render an empty-state note instead of a blank chart).
std::string RenderSoakDashboardHtml(const DashboardOptions& options,
                                    const TimeSeriesRecorder& recorder,
                                    const std::vector<ChartSpec>& charts, const SloReport& slo);

}  // namespace emu::obs

#endif  // SRC_OBS_DASHBOARD_H_
