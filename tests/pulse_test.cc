// emu-pulse unit tests: the kernel phase profiler (SimProfile under
// off/sampled/full modes, JSON + table exports), the RunnerPulse epoch
// recorder (exact aggregates under a capped detail ring, a real multi-shard
// run, and the no-perturbation guarantee), the bounded TimeSeriesRecorder
// (halve-and-double downsampling), SLO clause parsing and evaluation, the
// soak dashboard renderer, and MetricsSampler edge cases.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/net/ethernet.h"
#include "src/net/udp.h"
#include "src/obs/dashboard.h"
#include "src/obs/pulse.h"
#include "src/obs/sampler.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"
#include "src/services/learning_switch.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"
#include "src/sim/parallel_runner.h"

namespace emu {
namespace {

// --- Kernel phase profiler -------------------------------------------------

const MacAddress kMacs[4] = {
    MacAddress::FromU48(0x02'00'00'00'00'01), MacAddress::FromU48(0x02'00'00'00'00'02),
    MacAddress::FromU48(0x02'00'00'00'00'03), MacAddress::FromU48(0x02'00'00'00'00'04)};
const Ipv4Address kIps[4] = {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                             Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4)};

struct ProfiledRun {
  SimProfile profile;
  u64 egress_digest = fnv::kOffset;
};

// The kernel_equiv_test learning-switch workload, shortened: teach the MACs,
// then unicast a few bursts. Returns the profile and an egress digest so a
// test can assert profiling never perturbs behavior.
ProfiledRun RunProfiledSwitch(ProfilingMode mode,
                              u64 stride = Simulator::kDefaultProfilingStride) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetProfilingMode(mode, stride);
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, MakeUdpPacket({MacAddress::Broadcast(), kMacs[port], kIps[port],
                                       Ipv4Address(10, 0, 0, 99), 1, 2},
                                      std::vector<u8>{port}));
    target.Run(20'000);
  }
  for (usize burst = 0; burst < 3; ++burst) {
    for (usize i = 0; i < 8; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      const u8 dst = static_cast<u8>((i + 1 + burst) % 4);
      target.Inject(src, MakeUdpPacket({kMacs[dst], kMacs[src], kIps[src], kIps[dst],
                                        1000, 2000},
                                       std::vector<u8>(1 + i, static_cast<u8>(burst))));
    }
    target.Run(50'000);
  }
  ProfiledRun out;
  out.profile = target.sim().ProfileReport();
  for (const EgressFrame& entry : target.TakeEgress()) {
    out.egress_digest = fnv::Bytes(fnv::U64(out.egress_digest, entry.port), entry.frame.bytes());
  }
  return out;
}

TEST(SimProfilePulse, OffModeCountsButNeverPopulates) {
  const ProfiledRun run = RunProfiledSwitch(ProfilingMode::kOff);
  EXPECT_FALSE(run.profile.profiling_enabled);
  EXPECT_FALSE(run.profile.populated());
  EXPECT_GT(run.profile.edges_run, 0u);  // scalar counters stay valid
  EXPECT_EQ(run.profile.edges_timed, 0u);
  EXPECT_EQ(run.profile.resume_dispatch.wall_ns, 0u);
}

TEST(SimProfilePulse, FullModeTimesEveryEdge) {
  const ProfiledRun run = RunProfiledSwitch(ProfilingMode::kFull);
  ASSERT_TRUE(run.profile.profiling_enabled);
  EXPECT_EQ(run.profile.mode, ProfilingMode::kFull);
  EXPECT_EQ(run.profile.sample_stride, 1u);
  EXPECT_TRUE(run.profile.populated());
  EXPECT_EQ(run.profile.edges_timed, run.profile.edges_run);
  EXPECT_EQ(run.profile.resume_dispatch.timed_calls, run.profile.resume_dispatch.calls);
  // Under full profiling the estimate IS the measured total.
  EXPECT_DOUBLE_EQ(run.profile.resume_dispatch.EstimatedTotalNs(),
                   static_cast<double>(run.profile.resume_dispatch.wall_ns));
}

TEST(SimProfilePulse, SampledModeTimesOneInStride) {
  const ProfiledRun run = RunProfiledSwitch(ProfilingMode::kSampled, /*stride=*/4);
  ASSERT_TRUE(run.profile.profiling_enabled);
  EXPECT_EQ(run.profile.mode, ProfilingMode::kSampled);
  EXPECT_EQ(run.profile.sample_stride, 4u);
  EXPECT_TRUE(run.profile.populated());
  EXPECT_GT(run.profile.edges_timed, 0u);
  EXPECT_LT(run.profile.edges_timed, run.profile.edges_run);
  // The 1-in-4 sample should land within a factor of two of the exact rate
  // (the sample gaps come from a fixed-seed generator, so this is not flaky).
  EXPECT_GE(run.profile.edges_timed * 8, run.profile.edges_run);
  // Sample-scaled estimate is bounded below by the raw timed wall time.
  EXPECT_GE(run.profile.resume_dispatch.EstimatedTotalNs(),
            static_cast<double>(run.profile.resume_dispatch.wall_ns));
}

// microbench_kernel's saturated workload: one frame every 10 cycles, a period
// that a fixed 1-in-64 stride samples at only a few of its phases. Every
// process that resumes often must show up in the sampled wall time.
TEST(SimProfilePulse, SampledModeSeesEveryBusyProcessOfAPeriodicDesign) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetProfilingMode(ProfilingMode::kSampled);
  target.Inject(0, MakeEthernetFrame(MacAddress::Broadcast(), kMacs[0], EtherType::kIpv4, {}));
  target.Inject(1, MakeEthernetFrame(MacAddress::Broadcast(), kMacs[1], EtherType::kIpv4, {}));
  target.Run(50'000);
  target.TakeEgress();
  for (u64 cycle = 0; cycle < 300'000; cycle += 10) {
    target.Inject(0, MakeEthernetFrame(kMacs[1], kMacs[0], EtherType::kIpv4, {}));
    target.Run(10);
  }
  const SimProfile profile = target.sim().ProfileReport();
  usize busy = 0;
  for (const ProcessProfile& process : profile.processes) {
    if (process.resumes >= 1'000) {
      ++busy;
      EXPECT_GT(process.wall_ns, 0u) << process.name << " (" << process.resumes << " resumes)";
    }
  }
  EXPECT_GE(busy, 7u);  // port0_rx, the arbiter, three switch stages, fan-out, one drain
}

TEST(SimProfilePulse, ProfilingDoesNotPerturbTheWorkload) {
  const ProfiledRun off = RunProfiledSwitch(ProfilingMode::kOff);
  const ProfiledRun sampled = RunProfiledSwitch(ProfilingMode::kSampled);
  const ProfiledRun full = RunProfiledSwitch(ProfilingMode::kFull);
  EXPECT_EQ(off.egress_digest, sampled.egress_digest);
  EXPECT_EQ(off.egress_digest, full.egress_digest);
  EXPECT_EQ(off.profile.edges_run, full.profile.edges_run);
  EXPECT_EQ(off.profile.cycles_fast_forwarded, full.profile.cycles_fast_forwarded);
}

TEST(SimProfilePulse, JsonAndTableExports) {
  const ProfiledRun run = RunProfiledSwitch(ProfilingMode::kSampled, /*stride=*/4);
  const std::string json = obs::SimProfileJson(run.profile);
  EXPECT_NE(json.find("\"profiling_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"sampled\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_stride\":4"), std::string::npos);
  EXPECT_NE(json.find("\"resume_dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"commit_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"estimated_total_ns\""), std::string::npos);
  EXPECT_FALSE(obs::FormatSimProfileTable(run.profile).empty());

  // A disabled report exports with the flag down and renders no table —
  // the emu_scope all-zeros regression.
  const SimProfile empty;
  EXPECT_NE(obs::SimProfileJson(empty).find("\"profiling_enabled\":false"),
            std::string::npos);
  EXPECT_TRUE(obs::FormatSimProfileTable(empty).empty());
}

// --- RunnerPulse -----------------------------------------------------------

TEST(RunnerPulse, AggregatesStayExactWhenDetailRingCaps) {
  obs::RunnerPulse pulse(/*max_records=*/4);
  pulse.BeginRun(/*shard_count=*/2, /*threads=*/1);
  u64 want_executed[2] = {0, 0};
  u64 want_wait[2] = {0, 0};
  for (u64 epoch = 1; epoch <= 10; ++epoch) {
    obs::PlanRecord plan;
    plan.epoch = epoch;
    plan.relax_sweeps = 2;
    plan.relaxations = 3;
    plan.frames_drained = epoch;
    pulse.RecordPlan(plan);
    for (u32 shard = 0; shard < 2; ++shard) {
      obs::ShardEpochRecord rec;
      rec.epoch = epoch;
      rec.shard = shard;
      rec.executed = epoch * (shard + 1);
      rec.work_begin_ns = 10;
      rec.work_end_ns = 20;
      rec.barrier_wait_ns = 5 + shard;
      want_executed[shard] += rec.executed;
      want_wait[shard] += rec.barrier_wait_ns;
      pulse.RecordShardEpoch(rec);
    }
  }
  pulse.EndRun(/*total_events=*/123);

  // Detail rings hold only the prefix; the rest is counted, not lost silently.
  EXPECT_EQ(pulse.plans().size(), 4u);
  EXPECT_EQ(pulse.shard_epochs().size(), 4u);
  EXPECT_EQ(pulse.dropped_records(), (10u - 4u) + (20u - 4u));

  // Aggregates keep accumulating past the cap — totals are always exact.
  ASSERT_EQ(pulse.shard_aggregates().size(), 2u);
  for (u32 shard = 0; shard < 2; ++shard) {
    const obs::ShardAggregate& agg = pulse.shard_aggregates()[shard];
    EXPECT_EQ(agg.epochs, 10u);
    EXPECT_EQ(agg.executed, want_executed[shard]);
    EXPECT_EQ(agg.barrier_wait_ns, want_wait[shard]);
    EXPECT_EQ(agg.max_barrier_wait_ns, 5u + shard);
    EXPECT_EQ(agg.work_ns, 10u * 10u);
  }

  // Plan totals come from the exact accumulator, not the capped ring: the
  // ring kept 4 of 10 epochs, yet the totals cover all 10.
  EXPECT_EQ(pulse.plan_aggregate().relax_sweeps, 20u);
  EXPECT_EQ(pulse.plan_aggregate().relaxations, 30u);
  EXPECT_EQ(pulse.plan_aggregate().frames_drained, 55u);

  const std::string json = pulse.SummaryJson();
  EXPECT_NE(json.find("\"total_events\":123"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_records\":22"), std::string::npos);
  EXPECT_NE(json.find("\"relax_sweeps\":20"), std::string::npos);
  EXPECT_NE(json.find("\"null_message_relaxations\":30"), std::string::npos);
  EXPECT_NE(json.find("\"frames_drained\":55"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_ns\""), std::string::npos);
}

// Two independent link ping-pongs across four shards (two link components):
// every shard does real work and the conservative planner must relax
// horizons across the cut, so the pulse sees component plans, per-shard
// epochs, and null-message relaxations.
u64 RunFourShardVolleys(usize threads, obs::RunnerPulse* pulse) {
  EventScheduler scheds[4];
  Link link_ab(scheds[0], 10'000'000'000ULL, 500'000);
  Link link_cd(scheds[2], 10'000'000'000ULL, 500'000);
  ParallelRunner runner;
  usize shard[4];
  for (usize i = 0; i < 4; ++i) {
    shard[i] = runner.AddShard(scheds[i]);
  }
  runner.ConnectDirection(link_ab, /*to_b=*/true, shard[0], shard[1]);
  runner.ConnectDirection(link_ab, /*to_b=*/false, shard[1], shard[0]);
  runner.ConnectDirection(link_cd, /*to_b=*/true, shard[2], shard[3]);
  runner.ConnectDirection(link_cd, /*to_b=*/false, shard[3], shard[2]);
  if (pulse != nullptr) {
    runner.AttachPulse(pulse);
  }

  // One digest per link: the two ping-pongs run on different shards, so
  // their handlers interleave in wall time — folding into shared state
  // would race. Each link's own arrival order IS deterministic.
  u64 digests[2] = {fnv::kOffset, fnv::kOffset};
  usize volleys[2] = {0, 0};
  const auto wire = [](Link& link, EventScheduler& a_clock, EventScheduler& b_clock,
                       u64& digest, usize& count) {
    link.AttachB([&link, &digest, &b_clock, &count](Packet frame) {
      digest = fnv::U64(digest, static_cast<u64>(b_clock.now()));
      if (++count < 12) {
        link.SendToA(std::move(frame));
      }
    });
    link.AttachA([&link, &digest, &a_clock](Packet frame) {
      digest = fnv::U64(digest, static_cast<u64>(a_clock.now()));
      link.SendToB(std::move(frame));
    });
  };
  wire(link_ab, scheds[0], scheds[1], digests[0], volleys[0]);
  wire(link_cd, scheds[2], scheds[3], digests[1], volleys[1]);
  scheds[0].At(1'000'000, [&link_ab] { link_ab.SendToB(Packet(64)); });
  scheds[2].At(1'500'000, [&link_cd] { link_cd.SendToB(Packet(64)); });

  const u64 events = runner.Run({.threads = threads});
  u64 digest = fnv::kOffset;
  for (const u64 v : {digests[0], digests[1], events, runner.epochs(), u64{volleys[0]},
                      u64{volleys[1]}}) {
    digest = fnv::U64(digest, v);
  }
  return digest;
}

TEST(RunnerPulse, FourShardRunReportsPerShardDetail) {
  obs::RunnerPulse pulse;
  RunFourShardVolleys(/*threads=*/4, &pulse);

  EXPECT_EQ(pulse.shard_count(), 4u);
  EXPECT_EQ(pulse.threads(), 4u);
  EXPECT_GT(pulse.epochs(), 0u);
  EXPECT_GT(pulse.total_events(), 0u);
  ASSERT_EQ(pulse.shard_aggregates().size(), 4u);
  for (const obs::ShardAggregate& agg : pulse.shard_aggregates()) {
    EXPECT_GT(agg.epochs, 0u);
    EXPECT_GT(agg.executed, 0u);  // both ping-pongs touch both of their shards
  }
  EXPECT_EQ(pulse.plans().size(), pulse.epochs());
  u64 relaxations = 0;
  for (const obs::PlanRecord& plan : pulse.plans()) {
    relaxations += plan.relaxations;
  }
  EXPECT_GT(relaxations, 0u);  // cut edges force null-message relaxation

  // Every epoch ran either inline or queued. Both ping-pongs have work from
  // the start, so their two link components share one queue (and two
  // threads), and each component epoch counts as parallel.
  EXPECT_EQ(pulse.inline_epochs() + pulse.parallel_epochs(), pulse.epochs());
  EXPECT_EQ(pulse.parallel_epochs(), pulse.epochs());

  const std::string json = pulse.SummaryJson();
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"inline_epochs\":" + std::to_string(pulse.inline_epochs())),
            std::string::npos);
  EXPECT_NE(json.find("\"parallel_epochs\":" + std::to_string(pulse.parallel_epochs())),
            std::string::npos);
  EXPECT_NE(json.find("\"null_message_relaxations\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"horizon_ps\""), std::string::npos);

  const std::string trace = pulse.WallClockTraceJson();
  EXPECT_NE(trace.find("epoch.plan"), std::string::npos);
  EXPECT_NE(trace.find("shard.work"), std::string::npos);
  EXPECT_NE(trace.find("barrier.wait"), std::string::npos);
}

TEST(RunnerPulse, AttachmentDoesNotPerturbTheRun) {
  const u64 bare = RunFourShardVolleys(/*threads=*/1, nullptr);
  obs::RunnerPulse pulse;
  EXPECT_EQ(RunFourShardVolleys(/*threads=*/1, &pulse), bare);
  obs::RunnerPulse pulse4;
  EXPECT_EQ(RunFourShardVolleys(/*threads=*/4, &pulse4), bare);
}

// --- TimeSeriesRecorder ----------------------------------------------------

TEST(TimeSeriesRecorder, CapacityHasAFloorOfEight) {
  obs::TimeSeriesRecorder tiny(1);
  EXPECT_EQ(tiny.capacity(), 8u);
}

TEST(TimeSeriesRecorder, HalveAndDoubleKeepsAUniformGrid) {
  obs::TimeSeriesRecorder rec(8);
  std::vector<std::pair<std::string, u64>> values = {{"m", 0}};
  for (u64 i = 0; i < 64; ++i) {
    values[0].second = i;
    rec.Record(static_cast<Picoseconds>(i) * 100, values);
  }
  EXPECT_EQ(rec.offered(), 64u);
  EXPECT_LE(rec.rows().size(), rec.capacity());
  EXPECT_GT(rec.stride(), 1u);
  EXPECT_EQ(rec.stride() & (rec.stride() - 1), 0u);  // power of two
  EXPECT_EQ(rec.dropped(), rec.offered() - rec.rows().size());
  // Retained rows sit on a uniform 1-in-stride grid over the offered samples.
  ASSERT_GE(rec.rows().size(), 2u);
  const Picoseconds step = static_cast<Picoseconds>(rec.stride()) * 100;
  EXPECT_EQ(rec.rows()[0].ts, 0);
  for (usize i = 1; i < rec.rows().size(); ++i) {
    EXPECT_EQ(rec.rows()[i].ts - rec.rows()[i - 1].ts, step) << "row " << i;
  }
}

TEST(TimeSeriesRecorder, SeriesJsonPivotsPerMetric) {
  obs::TimeSeriesRecorder rec(16);
  for (u64 i = 1; i <= 3; ++i) {
    rec.Record(static_cast<Picoseconds>(i) * 1000,
               {{"a.count", i}, {"b.p99", 10 * i}});
  }
  const std::string json = rec.SeriesJson();
  EXPECT_NE(json.find("\"stride\":1"), std::string::npos);
  EXPECT_NE(json.find("\"offered\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"b.p99\""), std::string::npos);
  EXPECT_NE(json.find("[1000,1]"), std::string::npos);
  EXPECT_NE(json.find("[3000,30]"), std::string::npos);
}

// --- SLO gates ---------------------------------------------------------------

TEST(Slo, ParseAcceptsClauseSets) {
  const obs::SloParseResult parsed =
      obs::ParseSloSpec("rtt.p99 <= 400; loss_rate <= 0.02\nalive >= 7");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.clauses.size(), 3u);
  EXPECT_EQ(parsed.clauses[0].metric, "rtt.p99");
  EXPECT_TRUE(parsed.clauses[0].less_equal);
  EXPECT_DOUBLE_EQ(parsed.clauses[0].bound, 400.0);
  EXPECT_DOUBLE_EQ(parsed.clauses[1].bound, 0.02);
  EXPECT_FALSE(parsed.clauses[2].less_equal);
  EXPECT_DOUBLE_EQ(parsed.clauses[2].bound, 7.0);
}

TEST(Slo, ParseRejectsBadClauses) {
  EXPECT_FALSE(obs::ParseSloSpec("rtt.p99 == 400").ok);   // unsupported operator
  EXPECT_FALSE(obs::ParseSloSpec("rtt.p99 <= fast").ok);  // bound is not a number
  EXPECT_FALSE(obs::ParseSloSpec("<= 400").ok);           // no metric
  // The error names the offending clause ordinal for multi-clause specs.
  const obs::SloParseResult bad = obs::ParseSloSpec("a <= 1; b ~ 2");
  ASSERT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("2"), std::string::npos);
}

TEST(Slo, EvaluationPassesFailsAndTreatsMissingAsBreach) {
  const obs::SloParseResult parsed =
      obs::ParseSloSpec("good <= 10; tight <= 1; gone >= 0");
  ASSERT_TRUE(parsed.ok);
  const obs::SloLookup lookup = [](const std::string& name) -> std::optional<double> {
    if (name == "good") {
      return 5.0;
    }
    if (name == "tight") {
      return 2.0;
    }
    return std::nullopt;
  };
  const obs::SloReport report = obs::EvaluateSlo(parsed.clauses, lookup);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_TRUE(report.checks[0].ok);
  EXPECT_FALSE(report.checks[1].ok);
  EXPECT_FALSE(report.checks[2].ok);
  EXPECT_TRUE(report.checks[2].missing);  // renamed metric must not pass silently

  const std::string text = obs::FormatSloReport(report);
  EXPECT_NE(text.find("PASS"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("missing"), std::string::npos);
  EXPECT_NE(text.find("BREACH"), std::string::npos);
}

TEST(Slo, RegistryLookupResolvesHistogramViews) {
  MetricsRegistry registry;
  u64 counter = 42;
  Histogram h;
  registry.Register("svc.requests", &counter);
  registry.RegisterHistogram("svc.latency_us", &h);
  for (u64 v = 1; v <= 100; ++v) {
    h.Observe(v);
  }
  const obs::SloLookup lookup = obs::MakeRegistryLookup(registry);
  ASSERT_TRUE(lookup("svc.requests").has_value());
  EXPECT_DOUBLE_EQ(*lookup("svc.requests"), 42.0);
  ASSERT_TRUE(lookup("svc.latency_us.count").has_value());
  EXPECT_DOUBLE_EQ(*lookup("svc.latency_us.count"), 100.0);
  ASSERT_TRUE(lookup("svc.latency_us.p99").has_value());
  EXPECT_GT(*lookup("svc.latency_us.p99"), 0.0);
  EXPECT_FALSE(lookup("svc.renamed").has_value());

  const obs::SloParseResult parsed = obs::ParseSloSpec("svc.latency_us.p99 <= 1000000");
  ASSERT_TRUE(parsed.ok);
  EXPECT_TRUE(obs::EvaluateSlo(parsed.clauses, lookup).ok);
}

// --- Soak dashboard ----------------------------------------------------------

TEST(Dashboard, RendersSeriesChartsAndSloTable) {
  obs::TimeSeriesRecorder rec(16);
  for (u64 i = 1; i <= 4; ++i) {
    rec.Record(static_cast<Picoseconds>(i) * kPicosPerMilli,
               {{"rtt_us.p99", 100 + i}, {"replies", 10 * i}});
  }
  obs::SloReport slo;
  slo.checks.push_back({{"rtt_us.p99", true, 400.0, "rtt_us.p99 <= 400"}, true, false, 104.0});
  slo.checks.push_back({{"loss", true, 0.0, "loss <= 0"}, false, false, 0.5});
  slo.ok = false;

  obs::DashboardOptions options;
  options.title = "soak";
  const std::vector<obs::ChartSpec> charts = {
      {"RTT", "us", {"rtt_us.p99"}, false},
      {"Throughput", "replies/s", {"replies"}, true},
  };
  const std::string html = obs::RenderSoakDashboardHtml(options, rec, charts, slo);
  EXPECT_NE(html.find("rtt_us.p99"), std::string::npos);  // p99 series is plotted
  EXPECT_NE(html.find("SLO gates"), std::string::npos);
  EXPECT_NE(html.find("PASS"), std::string::npos);
  EXPECT_NE(html.find("FAIL"), std::string::npos);
  // Self-contained by design: no external script or stylesheet references
  // (the only URLs allowed are XML namespaces inside the inline renderer).
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link "), std::string::npos);

  // Without SLO checks the gate table is omitted entirely.
  const std::string bare =
      obs::RenderSoakDashboardHtml(options, rec, charts, obs::SloReport{});
  EXPECT_EQ(bare.find("SLO gates"), std::string::npos);
}

// --- MetricsSampler edge cases ------------------------------------------------

TEST(MetricsSamplerEdge, EmptyRegistryYieldsRowsButNoCsv) {
  MetricsRegistry registry;
  MetricsSampler sampler(registry, 10 * kPicosPerMicro);
  sampler.Sample(5 * kPicosPerMicro);
  ASSERT_EQ(sampler.rows().size(), 1u);
  EXPECT_TRUE(sampler.rows()[0].values.empty());
  EXPECT_EQ(sampler.Csv(), "ts_ps,name,value\n");  // header only, no data rows
}

TEST(MetricsSamplerEdge, HistogramViewsExpandInRowsAndCsv) {
  MetricsRegistry registry;
  Histogram h;
  registry.RegisterHistogram("rtt_us", &h);
  h.Observe(10);
  h.Observe(20);
  MetricsSampler sampler(registry, kPicosPerMilli);
  sampler.Sample(kPicosPerMilli);

  ASSERT_EQ(sampler.rows().size(), 1u);
  u64 count = 0;
  u64 sum = 0;
  bool saw_p99 = false;
  for (const auto& [name, value] : sampler.rows()[0].values) {
    if (name == "rtt_us.count") {
      count = value;
    } else if (name == "rtt_us.sum") {
      sum = value;
    } else if (name == "rtt_us.p99") {
      saw_p99 = true;
    }
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(sum, 30u);
  EXPECT_TRUE(saw_p99);
  const std::string csv = sampler.Csv();
  EXPECT_NE(csv.find("rtt_us.count,2"), std::string::npos);
  EXPECT_NE(csv.find("rtt_us.sum,30"), std::string::npos);
}

TEST(MetricsSamplerEdge, FeedsAttachedRecorderAndPrometheusLints) {
  MetricsRegistry registry;
  u64 counter = 0;
  Histogram h;
  registry.Register("soak.frames", &counter);
  registry.RegisterHistogram("soak.rtt_us", &h);

  obs::TimeSeriesRecorder rec(16);
  EventScheduler scheduler;
  MetricsSampler sampler(registry, 10 * kPicosPerMicro);
  sampler.AttachRecorder(&rec);
  sampler.SchedulePeriodic(scheduler, 50 * kPicosPerMicro);
  for (int i = 1; i <= 5; ++i) {
    scheduler.At((i * 10 - 1) * kPicosPerMicro, [&counter, &h, i] {
      counter += 3;
      h.Observe(static_cast<u64>(i));
    });
  }
  scheduler.Run();

  EXPECT_EQ(sampler.rows().size(), 5u);
  EXPECT_EQ(rec.offered(), 5u);
  ASSERT_EQ(rec.rows().size(), 5u);
  EXPECT_EQ(rec.rows()[0].ts, 10 * kPicosPerMicro);
  EXPECT_EQ(rec.rows()[0].values, sampler.rows()[0].values);

  // The registry the soaks publish with --prom must pass the linter.
  std::string error;
  EXPECT_TRUE(PrometheusLint(registry.PrometheusText(), &error)) << error;
}

}  // namespace
}  // namespace emu
