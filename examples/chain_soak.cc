// chain_soak: an in-network compute pipeline behind a ScenarioSpec (emu-chain).
//
// Builds filter -> NAT -> L1 cache -> memcached pool from a declarative
// scenario spec (specs/chain_soak.spec is the default, embedded below), each
// stage on its own simulated host and PDES shard, and drives a memaslap-style
// 90/10 GET/SET workload through the whole chain from the source host. For
// each seed the soak runs three times — threads=1, threads=T, and a
// threads=T replay — and gates on:
//
//   - flow integrity: every admitted request produced exactly one reply at
//     the source; the head stage serviced exactly the admitted count; no
//     stage lost backpressure (LOSTBACKPRESSURE / CHAINMISROUTE findings
//     from ChainRuntime::CollectFindings are failures);
//   - determinism: the chain counter digest, the fault registry's injection
//     log digest, and the exported Perfetto trace are bit-exact across
//     thread counts and across a same-seed replay — the trace comparison is
//     byte equality of the JSON;
//   - decomposition: the trace recovers a per-stage latency decomposition
//     (Table 4 shape) with a populated queue and service row for every
//     stage on the chain.
//
// --log-dir writes one artifact per seed (digests, per-stage counters, the
// decomposition table) plus the threads=T Perfetto trace — the CI uploads
// the directory. The seed loop, the digest and trace comparisons, the SLO
// gate and the artifacts are the shared soak harness (soak_harness.h).
//
// A build with EMU_TRACE=OFF compiles the trace out, so the decomposition
// gate and the trace byte-compare are skipped there, and the soak says so;
// the flow, findings, digest and SLO gates still run.
//
// emu-pulse additions: every run samples source-side telemetry (reply
// throughput, shed, in-flight window, FIFO-matched source RTT p50/p99) into
// a bounded TimeSeriesRecorder and records the parallel runner's per-epoch
// wall-clock profile. --log-dir then also gets, per seed, the soak
// dashboard HTML, the series JSON, and the epoch profile JSON + wall-clock
// trace. All of these are separate artifacts from the deterministic trace —
// the trace byte-compare still covers the deterministic stream only, and
// still passes with pulse attached. --slo CLAUSES evaluates declarative SLO
// gates (e.g. "chain.source.rtt_us.p99 <= 400; chain.loss_rate <= 0.01")
// against the threads=T run of every seed and makes a breach exit nonzero.
//
// Usage:
//   chain_soak [--seed N] [--seeds N] [--threads N] [--requests N]
//              [--spec FILE] [--log-dir DIR] [--slo CLAUSES] [--prom FILE]
//              [--verbose]
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "examples/soak_harness.h"
#include "src/chain/scenario_build.h"
#include "src/chain/stage_factory.h"
#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/fault/fault_registry.h"
#include "src/obs/decompose.h"
#include "src/obs/trace.h"
#include "src/sim/memaslap.h"

namespace emu {
namespace {

// The default scenario (kept in lockstep with specs/chain_soak.spec): the
// paper's service portfolio composed into one pipeline, the filter on the
// cycle-accurate FPGA target, everything else on the CPU target.
constexpr char kDefaultSpec[] =
    "topology hub link_delay=2us\n"
    "host client mac=0x020000000c01 ip=192.168.1.10\n"
    "host h1\nhost h2\nhost h3\nhost h4\n"
    "stage filter kind=filter    host=h1 target=fpga queue=16\n"
    "stage nat    kind=nat       host=h2 target=cpu  queue=16\n"
    "stage cache  kind=l1cache   host=h3 target=cpu  queue=32 capacity=64\n"
    "stage pool   kind=memcached host=h4 target=cpu  queue=32\n"
    "chain client -> filter -> nat -> cache -> pool\n";

constexpr usize kPrewarmKeys = 200;

#ifdef EMU_TRACE
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

struct SoakOptions {
  u64 requests = 300;
  // Four stages each serve a request twice (forward and reply), so 25 us
  // between requests puts per-stage load at ~80% of the 10 us CPU service
  // time: queues visibly fill (nonzero decomposition queue rows) while the
  // source's credit window keeps it from shedding in steady state.
  u64 gap_us = 25;
  ScenarioSpec spec;  // parsed and checked once by Main
};

// Source telemetry fills the base's series (capacity 2048), snapshot and
// Prometheus text; the digests are {"chain", "log"}.
struct RunOutcome : soak::SoakRun {
  RunOutcome() : SoakRun(2048) {}
  u64 attempts = 0;
  u64 source_shed = 0;
  u64 source_replies = 0;
  std::vector<Finding> findings;
  std::string counters;       // per-stage counter table
  std::string decomposition;  // per-stage latency table
  std::vector<obs::StageDecomposition> stage_rows;  // the decomposition gate's input
};

RunOutcome RunOnce(u64 seed, usize threads, const SoakOptions& opt,
                   const soak::SoakHarness& harness) {
  RunOutcome out;
  FaultRegistry registry(seed);
  // CheckSpec already built this spec once, so this build cannot fail.
  Expected<std::unique_ptr<Scenario>> built = BuildScenario(opt.spec, &registry);
  Scenario& scenario = **built;

  obs::TraceSession trace;
  trace.Install();

  // The workload addresses the memcached VIP (both cache tiers answer to
  // it); the client IP must sit in the NAT's internal subnet.
  MemaslapConfig mc;
  const MemcachedConfig mc_service = CanonicalMemcachedConfig();
  mc.server_mac = mc_service.mac;
  mc.server_ip = mc_service.ip;
  mc.client_ip = Ipv4Address(192, 168, 1, 10);
  mc.key_space = kPrewarmKeys;
  mc.seed = seed;
  MemaslapLoadgen gen(mc);

  std::vector<Packet> frames;
  for (usize i = 0; i < gen.prewarm_count(); ++i) {
    frames.push_back(gen.PrewarmFrame(i));
  }
  for (usize i = 0; i < opt.requests; ++i) {
    frames.push_back(gen.WorkloadFrame(i));
  }
  out.attempts = frames.size();

  ChainRuntime& chain = scenario.chain;
  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  const Picoseconds gap = static_cast<Picoseconds>(opt.gap_us) * kPicosPerMicro;

  // --- emu-pulse telemetry (source shard only) ---
  // Everything sampled here is mutated exclusively by events on the source
  // host's scheduler (sends, the reply handler, the sampler itself), so the
  // mid-run sampling is shard-safe and its values — including the counter
  // events it adds to the deterministic trace — are bit-identical for any
  // thread count. RTT is FIFO-matched at the source: memaslap frames carry
  // no request id (fixed UDP ports), so each reply is paired with the oldest
  // outstanding send. Sums and means are exact under any matching; the p50/
  // p99 are the standard passive-measurement approximation.
  Histogram rtt_us;
  std::deque<Picoseconds> in_flight;
  u64 sent = 0;
  MetricsRegistry source_metrics;
  source_metrics.Register("chain.source.sent", &sent);
  source_metrics.Register("chain.source.shed", [&chain] { return chain.source_shed(); });
  source_metrics.Register("chain.source.replies", [&chain] { return chain.source_replies(); });
  source_metrics.RegisterGauge("chain.source.in_flight",
                               [&in_flight] { return static_cast<u64>(in_flight.size()); });
  source_metrics.RegisterHistogram("chain.source.rtt_us", &rtt_us);
  chain.SetSourceReplyHandler([&in_flight, &rtt_us, &clock](Packet) {
    if (!in_flight.empty()) {
      const Picoseconds sent_at = in_flight.front();
      in_flight.pop_front();
      rtt_us.Observe(static_cast<u64>((clock.now() - sent_at) / kPicosPerMicro));
    }
  });

  for (usize i = 0; i < frames.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * gap;
    clock.At(at, [&chain, &in_flight, &sent, at, frame = std::move(frames[i])]() mutable {
      if (chain.SourceSend(std::move(frame))) {
        ++sent;
        in_flight.push_back(at);
      }
    });
  }

  // Sample through the send schedule plus a drain tail for the last replies.
  const Picoseconds sample_until =
      static_cast<Picoseconds>(frames.size() + 1) * gap + 500 * kPicosPerMicro;
  harness.RunWithTelemetry(scenario.topology, threads, source_metrics, clock, sample_until, out);

  out.digests = {{"chain", chain.Digest()}, {"log", registry.LogDigest()}};
  out.source_shed = chain.source_shed();
  out.source_replies = chain.source_replies();
  chain.CollectFindings(out.findings);

  if (kTraced) {
    out.trace_json = trace.ExportChromeJson();
    std::vector<std::string> stage_order;
    for (usize i = 0; i < chain.stage_count(); ++i) {
      stage_order.push_back(chain.stage(i).name());
    }
    out.stage_rows = obs::DecomposeChainLatency(trace.MergedEvents(), stage_order);
    out.decomposition = obs::FormatDecompositionTable(out.stage_rows);
  }

  std::ostringstream counters;
  for (usize i = 0; i < chain.stage_count(); ++i) {
    ChainStageNode& stage = chain.stage(i);
    counters << stage.name() << ": fwd=" << stage.serviced_forward()
             << " reply=" << stage.serviced_reply()
             << " lost_bp=" << stage.lost_backpressure()
             << " misrouted=" << stage.misrouted()
             << " flood_dropped=" << stage.flood_dropped()
             << " ignored=" << stage.ignored()
             << " stalls=" << stage.egress_stalls() << "\n";
  }
  counters << "source: attempts=" << out.attempts << " shed=" << out.source_shed
           << " replies=" << out.source_replies << "\n";
  out.counters = counters.str();

  if (harness.config().verbose) {
    MetricsRegistry metrics;
    chain.RegisterMetrics(metrics, "chain");
    registry.RegisterMetrics(metrics, "faults");
    std::printf("%s", metrics.Format().c_str());
  }
  obs::TraceSession::Detach();
  return out;
}

// A spec every run can use: it builds and declares a chain. Checked once,
// before the first run, so a bad spec prints one diagnostic.
Status CheckSpec(const ScenarioSpec& spec) {
  FaultRegistry registry(0);
  const Expected<std::unique_ptr<Scenario>> built = BuildScenario(spec, &registry);
  if (!built.ok()) {
    return built.status();
  }
  if (!(*built)->has_chain) {
    return InvalidArgument("spec declares no chain");
  }
  return Status::Ok();
}

// Flow, findings and decomposition on the threads run; the harness judges
// run failures and determinism.
std::vector<std::string> CheckInvariants(const RunOutcome& run) {
  std::vector<std::string> violations;
  for (const Finding& f : run.findings) {
    violations.push_back(f.ToString());
  }
  const u64 admitted = run.attempts - run.source_shed;
  if (run.source_replies != admitted) {
    violations.push_back("flow: " + std::to_string(admitted) + " requests admitted but " +
                         std::to_string(run.source_replies) + " replies returned");
  }
  for (const obs::StageDecomposition& row : run.stage_rows) {
    if (row.queue.count == 0 || row.service.count == 0) {
      violations.push_back("decomposition: stage '" + row.stage +
                           "' has an empty queue or service row (queue=" +
                           std::to_string(row.queue.count) +
                           " service=" + std::to_string(row.service.count) + ")");
    }
  }
  return violations;
}

// Lookup for the SLO gate: harness-derived values first (loss_rate), then the
// end-of-run snapshot of the source telemetry registry (which already expands
// histogram `.count/.sum/.p50/.p99` views).
obs::SloLookup MakeSoakLookup(const RunOutcome& run) {
  return [&run](const std::string& name) -> std::optional<double> {
    if (name == "chain.loss_rate") {
      return run.attempts == 0 ? 0.0
                               : static_cast<double>(run.source_shed) /
                                     static_cast<double>(run.attempts);
    }
    return soak::FinalMetric(run, name);
  };
}

// The emu-pulse dashboard of the threads run: source-side telemetry. A
// separate artifact from the deterministic trace by design.
const std::vector<obs::ChartSpec> kCharts = {
    {"Reply throughput", "replies/s", {"chain.source.replies"}, true},
    {"Source shed (cumulative)", "frames", {"chain.source.shed"}, false},
    {"In-flight window", "requests", {"chain.source.in_flight"}, false},
    {"Source RTT", "us", {"chain.source.rtt_us.p50", "chain.source.rtt_us.p99"}, false},
};

constexpr char kUsage[] =
    "usage: chain_soak [--seed N] [--seeds N] [--threads N] [--requests N]\n"
    "                  [--gap-us N] [--spec FILE] [--log-dir DIR]\n"
    "                  [--slo CLAUSES] [--prom FILE] [--sample-us N] [--verbose]\n"
    "--spec replaces the built-in filter->nat->cache->pool scenario;\n"
    "--log-dir must already exist; per-seed artifacts (digests, counters,\n"
    "latency decomposition, Perfetto trace, soak dashboard HTML, series +\n"
    "epoch-profile JSON) are written there.\n"
    "--slo takes ';'-separated clauses like \"chain.source.rtt_us.p99 <= 400;\n"
    "chain.loss_rate <= 0.02\"; any breach on any seed's threads run makes\n"
    "the exit status nonzero. --prom writes the source telemetry registry\n"
    "of the last seed's threads run in Prometheus exposition format.\n";

int Main(int argc, char** argv) {
  SoakOptions opt;
  std::string spec_path;
  soak::SoakHarness harness("chain_soak", kUsage, /*triple=*/true,
                            {.seeds = 3, .sample_us = 100});
  if (!harness.ParseArgs(argc, argv,
                         {{"--requests", &opt.requests},
                          {"--gap-us", &opt.gap_us},
                          {"--spec", &spec_path}})) {
    return 2;
  }
  if (opt.requests == 0 || opt.gap_us == 0) {
    return harness.Usage();
  }
  std::string spec_text = kDefaultSpec;
  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "chain_soak: cannot read %s\n", spec_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    spec_text = text.str();
  }
  Expected<ScenarioSpec> spec = ParseScenarioSpec(spec_text);
  const Status checked = spec.ok() ? CheckSpec(*spec) : spec.status();
  if (!checked.ok()) {
    std::fprintf(stderr, "chain_soak: --spec %s: %s\n",
                 spec_path.empty() ? "(built-in)" : spec_path.c_str(),
                 checked.ToString().c_str());
    return 2;
  }
  opt.spec = std::move(*spec);
  const soak::SoakConfig& cfg = harness.config();

  std::printf("chain_soak: %s requests=%llu (+%zu prewarm)\n", harness.SeedRange().c_str(),
              static_cast<unsigned long long>(opt.requests), kPrewarmKeys);
  if (!kTraced) {
    std::printf("chain_soak: built with EMU_TRACE=OFF: decomposition gate and trace "
                "byte-compare skipped (the trace is compiled out)\n");
  }

  bool all_ok = true;
  for (u64 k = 0; k < cfg.seeds; ++k) {
    const u64 seed = cfg.seed + k;
    const RunOutcome serial = RunOnce(seed, 1, opt, harness);
    const RunOutcome parallel = RunOnce(seed, cfg.threads, opt, harness);
    const RunOutcome replay = RunOnce(seed, cfg.threads, opt, harness);
    std::vector<std::string> violations = harness.JudgeTriple(
        serial, parallel, replay, [&parallel] { return CheckInvariants(parallel); });
    // SLO gate on the threads run: a breach is a failure in its own right,
    // even with every determinism/flow invariant intact.
    const obs::SloReport slo = harness.EvaluateSlo(MakeSoakLookup(parallel));
    if (!slo.ok) {
      violations.push_back("slo: breach (see clause report)");
    }
    all_ok = all_ok && violations.empty();

    harness.PrintSeed(seed, "events=" + std::to_string(parallel.events), parallel, violations);
    harness.PrintSlo(slo);
    if (k == 0 || !violations.empty()) {
      std::printf("%s", parallel.decomposition.c_str());
    }
    obs::DashboardOptions dash;
    dash.title = "chain_soak seed " + std::to_string(seed);
    dash.subtitle = "filter->nat->cache->pool, threads run; source-side telemetry";
    const std::string text = harness.SeedText(
        seed, "", serial, parallel, replay,
        "\nper-stage counters (threads run):\n" + parallel.counters +
            "\nlatency decomposition (threads run):\n" + parallel.decomposition,
        violations);
    harness.WriteArtifacts("seed" + std::to_string(seed), text, parallel, dash, kCharts, slo);
    if (k + 1 == cfg.seeds) {
      all_ok = harness.WriteProm(parallel.prom_text) && all_ok;
    }
  }
  return harness.Finish(all_ok);
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
