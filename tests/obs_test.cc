// emu-scope unit tests: the log2 histogram, the extended MetricsRegistry
// (gauges, histograms, TryGet, Prometheus exposition + lint), the trace
// session (ring bounds, JSON schema validation, packet-flight pairing), the
// TraceDump capture cap, and the MetricsSampler.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/net/ethernet.h"
#include "src/net/udp.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"
#include "src/services/learning_switch.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/latency_probe.h"
#include "src/sim/topology.h"
#include "src/sim/trace_dump.h"

namespace emu {
namespace {

// --- Histogram -----------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket k holds [2^(k-1), 2^k - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kBucketCount - 1);

  for (usize k = 1; k + 1 < Histogram::kBucketCount; ++k) {
    const u64 lo = Histogram::BucketLowerBound(k);
    const u64 hi = Histogram::BucketUpperBound(k);
    EXPECT_EQ(lo, u64{1} << (k - 1)) << "bucket " << k;
    EXPECT_EQ(hi, (u64{1} << k) - 1) << "bucket " << k;
    EXPECT_EQ(Histogram::BucketIndex(lo), k);
    EXPECT_EQ(Histogram::BucketIndex(hi), k);
  }
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBucketCount - 1), ~0ull);
}

TEST(Histogram, ObserveAccumulatesCountAndSum) {
  Histogram h;
  h.Observe(0);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(5)), 2u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(1000)), 1u);
}

TEST(Histogram, MergeIsElementwise) {
  Histogram a;
  Histogram b;
  a.Observe(3);
  a.Observe(100);
  b.Observe(3);
  b.Observe(70000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 3u + 100 + 3 + 70000);
  EXPECT_EQ(a.bucket(Histogram::BucketIndex(3)), 2u);
  EXPECT_EQ(a.bucket(Histogram::BucketIndex(100)), 1u);
  EXPECT_EQ(a.bucket(Histogram::BucketIndex(70000)), 1u);
}

// The estimator's contract: within one bucket width (a factor-of-two band)
// of the exact nearest-rank percentile LatencyStats computes.
TEST(Histogram, PercentileWithinOneBucketOfExact) {
  Histogram h;
  LatencyStats exact;
  u64 x = 0x2545f4914f6cdd1dull;  // deterministic xorshift samples
  for (usize i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const u64 sample = 1 + (x % 1'000'000);
    h.Observe(sample);
    exact.Add(static_cast<Picoseconds>(sample));
  }
  for (double p : {50.0, 90.0, 99.0}) {
    const u64 estimate = h.PercentileEstimate(p);
    const u64 exact_ps = static_cast<u64>(exact.PercentileUs(p) * kPicosPerMicro);
    const usize exact_bucket = Histogram::BucketIndex(exact_ps);
    EXPECT_GE(estimate, Histogram::BucketLowerBound(exact_bucket)) << "p" << p;
    EXPECT_LE(estimate, Histogram::BucketUpperBound(exact_bucket)) << "p" << p;
  }
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.PercentileEstimate(50.0), 0u);  // empty
  h.Observe(42);
  EXPECT_EQ(Histogram::BucketIndex(h.PercentileEstimate(0.0)),
            Histogram::BucketIndex(42));
  EXPECT_EQ(Histogram::BucketIndex(h.PercentileEstimate(100.0)),
            Histogram::BucketIndex(42));
}

// --- MetricsRegistry extensions ------------------------------------------------------

TEST(MetricsRegistry, TryGetDistinguishesAbsentFromZero) {
  MetricsRegistry registry;
  u64 zero = 0;
  registry.Register("present.zero", &zero);
  EXPECT_EQ(registry.TryGet("present.zero"), std::optional<u64>(0));
  EXPECT_EQ(registry.TryGet("absent"), std::nullopt);
  EXPECT_EQ(registry.Get("absent"), 0u);  // legacy behavior preserved
  EXPECT_FALSE(registry.Has("absent"));
}

TEST(MetricsRegistry, GaugeKindIsTracked) {
  MetricsRegistry registry;
  u64 depth = 7;
  registry.RegisterGauge("queue.depth", &depth);
  EXPECT_EQ(registry.Kind("queue.depth"), std::optional<MetricKind>(MetricKind::kGauge));
  EXPECT_EQ(registry.Get("queue.depth"), 7u);
  depth = 3;  // gauges go down
  EXPECT_EQ(registry.Get("queue.depth"), 3u);
}

TEST(MetricsRegistry, HistogramExposesDerivedScalarViews) {
  MetricsRegistry registry;
  Histogram h;
  h.Observe(10);
  h.Observe(20);
  h.Observe(30);
  registry.RegisterHistogram("svc.latency", &h);

  EXPECT_EQ(registry.GetHistogram("svc.latency"), &h);
  EXPECT_EQ(registry.TryGet("svc.latency.count"), std::optional<u64>(3));
  EXPECT_EQ(registry.TryGet("svc.latency.sum"), std::optional<u64>(60));
  EXPECT_TRUE(registry.TryGet("svc.latency.p50").has_value());
  EXPECT_TRUE(registry.TryGet("svc.latency.p99").has_value());

  // Snapshot expands the views, so scalar consumers (the CASP bridge) see
  // distribution stats with no histogram-specific code.
  std::set<std::string> names;
  for (const auto& [name, value] : registry.Snapshot()) {
    names.insert(name);
  }
  EXPECT_TRUE(names.count("svc.latency.count"));
  EXPECT_TRUE(names.count("svc.latency.sum"));
  EXPECT_TRUE(names.count("svc.latency.p50"));
  EXPECT_TRUE(names.count("svc.latency.p99"));
}

TEST(MetricsRegistry, PrometheusTextPassesLint) {
  MetricsRegistry registry;
  u64 counter = 12;
  u64 gauge = 5;
  Histogram h;
  h.Observe(3);
  h.Observe(900);
  h.Observe(900000);
  registry.Register("nat.translated_out", &counter);
  registry.RegisterGauge("kernel.live_processes", &gauge);
  registry.RegisterHistogram("rtt_ps", &h);

  const std::string text = registry.PrometheusText();
  std::string error;
  EXPECT_TRUE(PrometheusLint(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("# TYPE nat_translated_out counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kernel_live_processes gauge"), std::string::npos);
  EXPECT_NE(text.find("rtt_ps_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rtt_ps_count 3"), std::string::npos);
}

TEST(PrometheusLintRejects, MalformedExpositions) {
  std::string error;
  // Invalid metric name (leading digit).
  EXPECT_FALSE(PrometheusLint("# TYPE 9bad counter\n9bad 1\n", &error));
  // Non-numeric value.
  EXPECT_FALSE(PrometheusLint("# TYPE m counter\nm notanumber\n", &error));
  // Duplicate TYPE.
  EXPECT_FALSE(PrometheusLint("# TYPE m counter\n# TYPE m counter\nm 1\n", &error));
  // TYPE after samples.
  EXPECT_FALSE(PrometheusLint("m 1\n# TYPE m counter\n", &error));
  // Histogram with non-increasing le bounds.
  EXPECT_FALSE(PrometheusLint(
      "# TYPE h histogram\nh_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n",
      &error));
  // Histogram with non-cumulative buckets.
  EXPECT_FALSE(PrometheusLint(
      "# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"4\"} 1\n"
      "h_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n",
      &error));
  // Histogram missing the +Inf bucket.
  EXPECT_FALSE(PrometheusLint(
      "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_sum 2\nh_count 1\n", &error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(PrometheusLint(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 3\n", &error));
  // Histogram missing _sum.
  EXPECT_FALSE(PrometheusLint(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", &error));
}

// The lint is a full sweep, not a first-error bail: one exposition with
// several independent violations yields one finding per violation, each
// carrying the check id, subject, and line number of its defect.
TEST(PrometheusLintFindings, CollectsEveryViolation) {
  const std::string text =
      "# TYPE 9bad counter\n"       // line 1: METRICSFMT (name in TYPE)
      "m 1\n"                       // line 2: clean sample, arms the DUP check
      "m2 notanumber\n"             // line 3: METRICSFMT (value)
      "# TYPE m counter\n"          // line 4: METRICSDUP (TYPE after samples)
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 5\n"
      "h_count 3\n";                // end: METRICSHIST (_count != +Inf)
  const std::vector<Finding> findings = PrometheusLintFindings(text);
  ASSERT_EQ(findings.size(), 4u);

  EXPECT_EQ(findings[0].check, "METRICSFMT");
  EXPECT_EQ(findings[0].subject, "9bad");
  EXPECT_NE(findings[0].message.find("line 1"), std::string::npos);

  EXPECT_EQ(findings[1].check, "METRICSFMT");
  EXPECT_EQ(findings[1].subject, "m2");
  EXPECT_NE(findings[1].message.find("line 3"), std::string::npos);
  EXPECT_NE(findings[1].message.find("notanumber"), std::string::npos);

  EXPECT_EQ(findings[2].check, "METRICSDUP");
  EXPECT_EQ(findings[2].subject, "m");
  EXPECT_NE(findings[2].message.find("line 4"), std::string::npos);

  EXPECT_EQ(findings[3].check, "METRICSHIST");
  EXPECT_EQ(findings[3].subject, "h");
  EXPECT_NE(findings[3].message.find("_count != +Inf"), std::string::npos);

  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_EQ(f.design, "metrics");
  }

  // The boolean wrapper reports the first finding's message verbatim.
  std::string error;
  EXPECT_FALSE(PrometheusLint(text, &error));
  EXPECT_EQ(error, findings.front().message);

  // Findings route through the shared JSON formatter like any other check.
  std::ostringstream os;
  FormatFindingsJson(os, findings);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"check\": \"METRICSDUP\""), std::string::npos);
  EXPECT_NE(json.find("\"design\": \"metrics\""), std::string::npos);

  EXPECT_TRUE(PrometheusLintFindings("# TYPE ok counter\nok 1\n").empty());
}

TEST(LatencyStats, FeedsHistogramAndRegistersMetrics) {
  LatencyStats stats;
  stats.Add(100);
  stats.Add(200);
  stats.AddLoss(3);
  EXPECT_EQ(stats.histogram().count(), 2u);
  EXPECT_EQ(stats.histogram().sum(), 300u);

  MetricsRegistry registry;
  stats.RegisterMetrics(registry, "rtt");
  EXPECT_EQ(registry.TryGet("rtt_ps.count"), std::optional<u64>(2));
  EXPECT_EQ(registry.TryGet("rtt.lost"), std::optional<u64>(3));
}

// --- TraceSession --------------------------------------------------------------------

TEST(TraceSession, RingIsBoundedAndCountsDrops) {
  obs::TraceSession::Config config;
  config.shard_capacity = 4;
  obs::TraceSession session(config);
  obs::TraceBuffer* buffer = session.shard(0);
  ASSERT_NE(buffer, nullptr);
  for (int i = 0; i < 10; ++i) {
    obs::EmitInstant(buffer, "tick", i * 100);
  }
  EXPECT_EQ(buffer->size(), 4u);
  EXPECT_EQ(buffer->total_pushed(), 10u);
  EXPECT_EQ(buffer->dropped(), 6u);
  EXPECT_EQ(session.dropped(), 6u);
  // The ring keeps the most recent window, oldest-first.
  const std::vector<obs::TraceEvent> events = buffer->Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().ts, 600);
  EXPECT_EQ(events.back().ts, 900);
}

TEST(TraceSession, ExportValidatesAndMergesDeterministically) {
  obs::TraceSession session;
  session.EnsureShards(2);
  // Same timestamp on both shards: shard index breaks the tie.
  obs::EmitInstant(session.shard(1), "b_event", 500);
  obs::EmitInstant(session.shard(0), "a_event", 500);
  obs::EmitComplete(session.shard(0), "span", 100, 250);
  obs::EmitAsyncBegin(session.shard(1), "pkt.flight", 50, 0x1234);
  obs::EmitAsyncEnd(session.shard(1), "pkt.flight", 800, 0x1234);

  const auto merged = session.MergedEvents();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].name, "pkt.flight");
  EXPECT_EQ(merged[1].name, "span");
  EXPECT_EQ(merged[2].name, "a_event");  // ts tie: shard 0 before shard 1
  EXPECT_EQ(merged[3].name, "b_event");

  const std::string json = session.ExportChromeJson();
  std::string error;
  EXPECT_TRUE(obs::ValidateChromeTraceJson(json, &error)) << error;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x1234\""), std::string::npos);
}

TEST(ValidateChromeTraceJson, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::ValidateChromeTraceJson("", &error));
  EXPECT_FALSE(obs::ValidateChromeTraceJson("{", &error));
  EXPECT_FALSE(obs::ValidateChromeTraceJson("{}", &error));  // no traceEvents
  EXPECT_FALSE(obs::ValidateChromeTraceJson("{\"traceEvents\":[{}]}", &error));  // no ph
  EXPECT_FALSE(obs::ValidateChromeTraceJson(
      "{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1}]}", &error));  // no name
  EXPECT_FALSE(obs::ValidateChromeTraceJson(
      "{\"traceEvents\":[{\"ph\":\"i\",\"name\":\"x\"}]}", &error));  // no ts
  EXPECT_FALSE(obs::ValidateChromeTraceJson(
      "{\"traceEvents\":[]} trailing", &error));
  EXPECT_TRUE(obs::ValidateChromeTraceJson(
      "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0}]}", &error))
      << error;  // metadata needs no name/ts
}

#ifdef EMU_TRACE
// End-to-end flight pairing: every frame a host sends opens exactly one
// "pkt.flight" async begin, and every arrival closes one.
TEST(TraceSession, PacketFlightsPairAcrossATopologyRun) {
  obs::TraceSession session;
  session.Install();

  LearningSwitch service;
  std::vector<HostSpec> specs = {
      {"h0", MacAddress::FromU48(0x020000000001), Ipv4Address(10, 0, 0, 1)},
      {"h1", MacAddress::FromU48(0x020000000002), Ipv4Address(10, 0, 0, 2)}};
  TopologyBuilder topo;
  topo.BuildStar(service, specs);
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp([](SimHost&, Packet) {});
  }
  topo.host(0).scheduler().At(10 * kPicosPerMicro, [&topo] {
    topo.host(0).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(0).mac(),
                                        EtherType::kIpv4, std::vector<u8>{1}));
  });
  topo.host(1).scheduler().At(50 * kPicosPerMicro, [&topo, &specs] {
    topo.host(1).Send(MakeUdpPacket({specs[0].mac, specs[1].mac,
                                     Ipv4Address(10, 0, 0, 2), Ipv4Address(10, 0, 0, 1),
                                     5000, 6000},
                                    std::vector<u8>{2}));
  });
  topo.Run();
  obs::TraceSession::Detach();

  usize begins = 0;
  usize ends = 0;
  std::set<u64> begin_ids;
  usize link_spans = 0;
  usize service_spans = 0;
  for (const obs::MergedEvent& e : session.MergedEvents()) {
    if (e.name == "pkt.flight") {
      if (e.phase == obs::Phase::kAsyncBegin) {
        ++begins;
        EXPECT_TRUE(begin_ids.insert(e.id).second) << "duplicate flight id";
      } else if (e.phase == obs::Phase::kAsyncEnd) {
        ++ends;
        EXPECT_TRUE(begin_ids.count(e.id)) << "end without begin";
      }
    } else if (e.name == "link.transit") {
      ++link_spans;
    } else if (e.name == "node.service") {
      ++service_spans;
    }
  }
  EXPECT_EQ(begins, 2u);   // two sends, one flight id each
  EXPECT_EQ(ends, 2u);     // broadcast reaches h1, unicast reaches h0
  EXPECT_GE(link_spans, 4u);  // b+e per traversed link direction
  EXPECT_EQ(service_spans, 2u);
}
#endif  // EMU_TRACE

// --- TraceDump capture cap -----------------------------------------------------------

TEST(TraceDump, CaptureIsCappedAndReportsDrops) {
  TraceDump dump;
  dump.set_capacity(2);
  Packet frame = MakeEthernetFrame(MacAddress::Broadcast(),
                                   MacAddress::FromU48(0x020000000001),
                                   EtherType::kIpv4, std::vector<u8>{1});
  for (int i = 0; i < 5; ++i) {
    dump.Capture(i * kPicosPerMicro, "tap", frame);
  }
  EXPECT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump.dropped(), 3u);
  const std::string summary = dump.Summary();
  EXPECT_NE(summary.find("3 packets dropped at capacity 2"), std::string::npos);
  dump.Clear();
  EXPECT_EQ(dump.dropped(), 0u);
  EXPECT_EQ(dump.Summary().find("dropped"), std::string::npos);
}

// --- MetricsSampler ------------------------------------------------------------------

TEST(MetricsSampler, BoundedPeriodicSampling) {
  MetricsRegistry registry;
  u64 counter = 0;
  registry.Register("work.done", &counter);

  EventScheduler scheduler;
  MetricsSampler sampler(registry, 10 * kPicosPerMicro);
  sampler.SchedulePeriodic(scheduler, 50 * kPicosPerMicro);
  // Counter advances between samples.
  for (int i = 1; i <= 5; ++i) {
    scheduler.At((i * 10 - 1) * kPicosPerMicro, [&counter] { counter += 2; });
  }
  scheduler.Run();

  ASSERT_EQ(sampler.rows().size(), 5u);
  EXPECT_EQ(sampler.rows()[0].ts, 10 * kPicosPerMicro);
  EXPECT_EQ(sampler.rows()[0].values[0].second, 2u);
  EXPECT_EQ(sampler.rows()[4].values[0].second, 10u);
  const std::string csv = sampler.Csv();
  EXPECT_NE(csv.find("work.done"), std::string::npos);
}

}  // namespace
}  // namespace emu
