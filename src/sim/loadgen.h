// OSNT-style traffic generation and measurement (§5.2).
//
// The paper uses the Open Source Network Tester to replay traffic while
// modifying the rate to find maximum throughput, and a DAG card for latency.
// OsntLoadgen reproduces that methodology against a FpgaTarget: fixed-rate
// replay with loss accounting, sequential request/response RTT measurement,
// and a binary rate search for the highest load below a loss threshold.
#ifndef SRC_SIM_LOADGEN_H_
#define SRC_SIM_LOADGEN_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/targets.h"
#include "src/sim/latency_probe.h"

namespace emu {

class MetricsRegistry;

// Builds the i-th frame to inject on `port`.
using FrameFactory = std::function<Packet(usize index, u8 port)>;

struct LoadgenReport {
  usize injected = 0;
  usize egressed = 0;
  // Drops explained by instrumented counters (impaired links, service
  // rejects); reported by FixedRateConfig::accounted_drops.
  u64 accounted_drops = 0;
  double offered_mqps = 0.0;   // million requests (frames) per second
  double achieved_mqps = 0.0;  // egress rate over the active window
  // Unexplained loss: frames neither egressed nor claimed by a drop counter.
  // This is what the rate search thresholds on, so deliberate impairment
  // doesn't read as congestion.
  double loss_rate = 0.0;
  double raw_loss_rate = 0.0;  // 1 - egressed/injected, impairment included
  LatencyStats latency;

  // Publishes the report under `<prefix>.injected/.egressed/
  // .accounted_drops` plus the latency histogram (`<prefix>.latency_ps`)
  // so harnesses scrape loadgen results like any service counter. The
  // report must outlive the registry bindings.
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix) const;
};

class OsntLoadgen {
 public:
  struct FixedRateConfig {
    double offered_mqps = 1.0;
    usize frames = 1000;
    std::vector<u8> ports = {0};  // round-robin across these
    Cycle drain_limit = 10'000'000;
    // Sums the run's per-link/per-service drop counters (sampled once at
    // drain). Unset: no accounting, loss_rate == raw_loss_rate.
    std::function<u64()> accounted_drops;
  };

  // Replays `frames` frames at the offered rate and reports achieved rate,
  // loss, and per-frame latency. An empty `ports` list aborts, in every
  // build type.
  static LoadgenReport RunFixedRate(FpgaTarget& target, const FrameFactory& factory,
                                    const FixedRateConfig& config);

  // Sequential request/response RTTs (the Table 4 latency methodology: one
  // outstanding request, warm service).
  static LatencyStats MeasureUnloadedRtt(FpgaTarget& target, const FrameFactory& factory,
                                         usize requests, u8 port = 0,
                                         Cycle per_request_limit = 1'000'000);

  // Binary-searches the highest offered rate whose loss stays below
  // `loss_threshold`. `trial` must run a FRESH target at the given rate.
  using TrialRunner = std::function<LoadgenReport(double offered_mqps)>;
  static double FindMaxThroughputMqps(const TrialRunner& trial, double lo_mqps,
                                      double hi_mqps, double loss_threshold = 0.001,
                                      int iterations = 12);
};

}  // namespace emu

#endif  // SRC_SIM_LOADGEN_H_
