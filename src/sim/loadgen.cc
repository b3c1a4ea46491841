#include "src/sim/loadgen.h"

#include <algorithm>
#include <cassert>

#include "src/common/fatal.h"
#include "src/core/metrics.h"

namespace emu {

void LoadgenReport::RegisterMetrics(MetricsRegistry& registry,
                                    const std::string& prefix) const {
  registry.Register(prefix + ".injected", [this] { return static_cast<u64>(injected); });
  registry.Register(prefix + ".egressed", [this] { return static_cast<u64>(egressed); });
  registry.Register(prefix + ".accounted_drops", &accounted_drops);
  latency.RegisterMetrics(registry, prefix + ".latency");
}

LoadgenReport OsntLoadgen::RunFixedRate(FpgaTarget& target, const FrameFactory& factory,
                                        const FixedRateConfig& config) {
  if (config.ports.empty()) {
    Fatal("OsntLoadgen::RunFixedRate", "no ingress ports to spread frames over");
  }
  LoadgenReport report;
  report.offered_mqps = config.offered_mqps;

  const double interval_ps = 1e6 / config.offered_mqps;  // Mqps -> ps/frame
  const Cycle start = target.sim().now();
  const Picoseconds cycle_ps = target.sim().cycle_period_ps();

  Picoseconds first_ingress = 0;
  for (usize i = 0; i < config.frames; ++i) {
    const u8 port = config.ports[i % config.ports.size()];
    const Cycle earliest =
        start + static_cast<Cycle>(interval_ps * static_cast<double>(i) / cycle_ps);
    if (i == 0) {
      first_ingress = static_cast<Picoseconds>(earliest) * cycle_ps;
    }
    target.Inject(port, factory(i, port), earliest);
    ++report.injected;
  }

  // Run until egress stalls (no growth for a grace window) or the limit.
  usize last_count = target.egress().size();
  Cycle stable_since = target.sim().now();
  while (target.sim().now() - start < config.drain_limit) {
    target.Run(512);
    const usize count = target.egress().size();
    if (count != last_count) {
      last_count = count;
      stable_since = target.sim().now();
    } else if (target.sim().now() - stable_since > 100'000) {
      break;  // drained
    }
    if (count >= config.frames) {
      break;
    }
  }

  const auto egress = target.TakeEgress();
  report.egressed = egress.size();
  Picoseconds last_egress = first_ingress;
  for (const auto& frame : egress) {
    report.latency.AddPacket(frame.frame);
    last_egress = std::max(last_egress, frame.frame.egress_time());
  }
  report.raw_loss_rate = report.injected == 0
                             ? 0.0
                             : 1.0 - static_cast<double>(report.egressed) /
                                         static_cast<double>(report.injected);
  if (config.accounted_drops) {
    // A drop counter can only ever explain frames that were injected; a
    // counter that double-books (or is sampled from an unrelated run) must
    // not drive loss_rate negative or the soak verdict out of [0, 1].
    report.accounted_drops =
        std::min(config.accounted_drops(), static_cast<u64>(report.injected));
    report.latency.AddLoss(report.accounted_drops);
  }
  assert(report.accounted_drops <= report.injected &&
         "accounted drops must be covered by injected frames");
  // Loss the counters do not explain. Accounted drops can exceed the raw gap
  // (e.g. duplicates egressing alongside drops); clamp at zero. The
  // zero-injected guard mirrors raw_loss_rate: no traffic means no loss.
  const usize explained =
      report.egressed + static_cast<usize>(report.accounted_drops);
  report.loss_rate =
      report.injected == 0 || explained >= report.injected
          ? 0.0
          : static_cast<double>(report.injected - explained) /
                static_cast<double>(report.injected);
  assert(report.loss_rate >= 0.0 && report.loss_rate <= 1.0);
  const double window_us = ToMicroseconds(last_egress - first_ingress);
  report.achieved_mqps =
      window_us > 0.0 ? static_cast<double>(report.egressed) / window_us : 0.0;
  return report;
}

LatencyStats OsntLoadgen::MeasureUnloadedRtt(FpgaTarget& target, const FrameFactory& factory,
                                             usize requests, u8 port,
                                             Cycle per_request_limit) {
  LatencyStats stats;
  for (usize i = 0; i < requests; ++i) {
    auto reply = target.SendAndCollect(port, factory(i, port), per_request_limit);
    if (reply.ok()) {
      stats.AddPacket(*reply);
    }
  }
  return stats;
}

double OsntLoadgen::FindMaxThroughputMqps(const TrialRunner& trial, double lo_mqps,
                                          double hi_mqps, double loss_threshold,
                                          int iterations) {
  double best = 0.0;
  double lo = lo_mqps;
  double hi = hi_mqps;
  for (int i = 0; i < iterations; ++i) {
    const double mid = (lo + hi) / 2.0;
    const LoadgenReport report = trial(mid);
    if (report.loss_rate <= loss_threshold && report.egressed > 0) {
      best = std::max(best, report.achieved_mqps);
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace emu
