// gossip_soak: SWIM membership under node-level chaos (emu-gossip).
//
// Builds an N-host hub world from a ScenarioSpec (emu-chain's declarative
// scenario layer), runs one SwimPeer per host, and applies a
// topology-scoped fault plan through a ChaosDirector: host crashes, restarts
// with a boot window, and partition windows realized as hub port-pair
// blocks. For each seed the soak runs three times — threads=1, threads=T,
// and a threads=T replay — and checks that the membership protocol kept its
// promises:
//
//   - completeness: every host that was up for a crashed member's whole
//     detection window declared it dead within SwimDetectionBound();
//   - accuracy: a Dead declaration is a false positive unless its subject
//     was actually down within the preceding bound, or a partition window
//     naming the subject overlapped it (partition-induced deaths spread by
//     gossip, so the rule is subject-based, not observer-based);
//   - rejoin: after a restart's boot window every up observer re-admitted
//     the member with a bumped incarnation within the bound;
//   - agreement: once the last chaos event plus the bound has passed, every
//     pair of up hosts agrees the other is alive;
//   - determinism: the per-peer membership-event digests and the fault
//     registry's injection-log digest are bit-exact across thread counts and
//     across a same-seed replay.
//
// Any violation exits nonzero. --prom writes the harness metrics (including
// the cross-seed detection-latency histogram) in Prometheus text format;
// --log-dir writes one file per seed with the plan, the injection log, and
// the digests — the CI uploads that directory as a failure artifact.
//
// The seed loop, the digest comparisons, the SLO gate and the artifacts are
// the shared soak harness (soak_harness.h); this file supplies the SWIM
// world, the invariant checker and the dashboard charts.
//
// emu-pulse additions: every run samples host-0's SWIM telemetry (probe
// rate, suspect/dead declarations, live-member view) into a bounded
// TimeSeriesRecorder and records the parallel runner's per-epoch wall-clock
// profile; --log-dir then also gets, per seed, the soak dashboard HTML,
// series JSON, and epoch profile JSON + wall-clock trace. The sampler runs
// on host 0's scheduler and reads only peer-0 state, so the runs stay
// bit-exact for any thread count. --slo CLAUSES evaluates declarative gates
// over the cross-seed harness metrics at end of soak (e.g.
// "gossip.detection_latency_us.p99 <= 5000; gossip.violations_total <= 0")
// and makes a breach exit nonzero.
//
// Usage:
//   gossip_soak [--seed N] [--seeds N] [--hosts N] [--threads N]
//               [--run-ms N] [--plan "<topo plan>"] [--prom FILE]
//               [--log-dir DIR] [--slo CLAUSES] [--verbose]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "examples/soak_harness.h"
#include "src/chain/scenario_build.h"
#include "src/common/fnv.h"
#include "src/core/histogram.h"
#include "src/core/metrics.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/services/swim_service.h"
#include "src/sim/chaos.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

// Crash early enough that detection completes before the partition ends,
// restart late enough that the cluster has settled; the partition window
// exercises indirect probes, partition-induced suspicion, and refutation.
constexpr char kDefaultPlan[] =
    "crash host=h2 at=20ms; restart host=h2 at=120ms; "
    "partition {h0,h1}|{h3,h4} from=40ms to=70ms";

// --impair adds ambient link chaos on top of the plan: loss on h0's uplink
// and reordering on h1's, both directions, at rates SWIM's indirect probes
// must absorb without false positives.
constexpr char kImpairClauses[] =
    "; link.h0.up.drop bernoulli 0.02; link.h0.down.drop bernoulli 0.02"
    "; link.h1.up.reorder bernoulli 0.02; link.h1.down.reorder bernoulli 0.02";

constexpr Picoseconds kBootDelay = 5 * kPicosPerMilli;

struct SoakOptions {
  u64 hosts = 8;
  u64 run_ms = 200;
  std::string plan_text = kDefaultPlan;
};

std::string HostName(usize i) { return "h" + std::to_string(i); }

// The SWIM membership list mirrors the spec's auto-host convention — one
// definition of "host i's addresses" (AutoHost) for both layers.
std::vector<SwimMember> ClusterMembers(usize hosts) {
  std::vector<SwimMember> members;
  for (usize i = 0; i < hosts; ++i) {
    const SpecHost host = AutoHost(i);
    members.push_back(SwimMember{host.name, host.mac, host.ip});
  }
  return members;
}

// The soak topology as a spec (specs/gossip_hub.spec parameterized by host
// count): 50 us links because SWIM's timescale is the 1 ms protocol period,
// and the larger conservative lookahead keeps the parallel epoch count (and
// so the soak's wall-clock) three orders of magnitude below cable-accurate
// delay.
std::string SoakSpecText(usize hosts) {
  return "topology hub hosts=" + std::to_string(hosts) + " link_delay=50us";
}

SwimConfig SoakSwimConfig(u64 run_ms) {
  SwimConfig config;
  config.run_until = static_cast<Picoseconds>(run_ms) * kPicosPerMilli;
  return config;
}

// Everything one run produces that the invariant checker needs, copied out
// before the topology is torn down. The digests are {"swim", "log"}: the
// per-peer EventsDigest folded in id order and FaultRegistry::LogDigest.
struct RunOutcome : soak::SoakRun {
  RunOutcome() : SoakRun(1024) {}
  std::vector<std::vector<SwimEvent>> swim_events;  // [observer]
  std::vector<std::vector<SwimState>> final_state;  // [observer][subject]
  std::vector<bool> host_up;
  std::string injection_log;
};

RunOutcome RunOnce(u64 seed, usize threads, const SoakOptions& opt,
                   const soak::SoakHarness& harness) {
  RunOutcome out;
  const std::vector<SwimMember> members = ClusterMembers(opt.hosts);
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText(SoakSpecText(opt.hosts), &registry);
  if (!built.ok()) {
    out.ok = false;
    out.detail = "bad scenario spec: " + built.status().ToString();
    return out;
  }
  TopologyBuilder& topo = (*built)->topology;

  // Every hub uplink carries per-direction impairment points
  // (`link.<host>.up/.down.{drop,corrupt,dup,reorder,delay}`), so plans can
  // put loss or reordering on the membership traffic itself. Unarmed points
  // draw no randomness — a plan without link clauses runs untouched.
  topo.EnableAllUplinkImpairment(registry, "link");

  ChaosDirector director(topo, &registry);
  director.set_boot_delay(kBootDelay);
  const Expected<FaultPlan> plan = ParseFaultPlan(opt.plan_text);
  if (!plan.ok()) {
    out.ok = false;
    out.detail = "bad fault plan: " + plan.status().ToString();
    return out;
  }
  if (Status applied = director.Apply(*plan); !applied.ok()) {
    out.ok = false;
    out.detail = "chaos apply failed: " + applied.ToString();
    return out;
  }
  // The director schedules the topo events; point entries (link impairment)
  // arm directly on the registry.
  registry.ArmPlan(*plan);

  const SwimConfig swim_config = SoakSwimConfig(opt.run_ms);
  std::vector<std::unique_ptr<SwimPeer>> peers;
  for (usize i = 0; i < opt.hosts; ++i) {
    peers.push_back(std::make_unique<SwimPeer>(
        topo.host(i), static_cast<u16>(i), members, swim_config,
        seed ^ (0x9E37'79B9'7F4A'7C15ull * (i + 1))));
    peers.back()->Start();
  }

  // emu-pulse: sample host 0's SWIM telemetry on host 0's own scheduler.
  // Every value read is mutated only by events on that shard (peer 0's
  // counters and membership view), so mid-run sampling is shard-safe and the
  // sampled series — like the digests — is bit-exact for any thread count.
  MetricsRegistry h0_metrics;
  peers[0]->RegisterMetrics(h0_metrics, "swim.h0");
  h0_metrics.RegisterGauge("swim.h0.alive_members", [&peers, hosts = opt.hosts] {
    u64 alive = 0;
    for (usize s = 0; s < hosts; ++s) {
      if (peers[0]->StateOf(static_cast<u16>(s)) == SwimState::kAlive) ++alive;
    }
    return alive;
  });
  harness.RunWithTelemetry(topo, threads, h0_metrics, topo.host(0).scheduler(),
                           swim_config.run_until, out);

  u64 swim_digest = fnv::kOffset;
  for (const auto& peer : peers) {
    swim_digest = fnv::Mix(swim_digest, peer->EventsDigest());
  }
  out.digests = {{"swim", swim_digest}, {"log", registry.LogDigest()}};
  out.injection_log = registry.Summary();
  for (usize o = 0; o < opt.hosts; ++o) {
    out.swim_events.push_back(peers[o]->events());
    out.host_up.push_back(topo.host(o).up());
    std::vector<SwimState> states;
    for (usize s = 0; s < opt.hosts; ++s) {
      states.push_back(peers[o]->StateOf(static_cast<u16>(s)));
    }
    out.final_state.push_back(std::move(states));
  }
  const bool verbose = harness.config().verbose;
  if (!harness.config().prom.empty() || verbose) {
    MetricsRegistry metrics;
    registry.RegisterMetrics(metrics, "faults");
    for (usize i = 0; i < opt.hosts; ++i) {
      topo.host(i).RegisterMetrics(metrics, "host." + HostName(i));
      peers[i]->RegisterMetrics(metrics, "swim." + HostName(i));
    }
    topo.hub().RegisterMetrics(metrics, "hub");
    out.prom_text = metrics.PrometheusText();
    if (verbose) {
      std::printf("%s", metrics.Format().c_str());
    }
  }
  return out;
}

// --- Invariant checking -----------------------------------------------------
//
// The checker reconstructs each host's lifecycle and the partition windows
// from the parsed plan, then audits the per-peer membership-event logs.

class InvariantChecker {
 public:
  InvariantChecker(const FaultPlan& plan, const SoakOptions& opt, Picoseconds bound)
      : opt_(opt), bound_(bound), horizon_(static_cast<Picoseconds>(opt.run_ms) * kPicosPerMilli),
        lossy_(!plan.entries.empty()) {
    for (const TopoFault& event : plan.topo_events) {
      switch (event.kind) {
        case TopoFault::Kind::kCrash:
          crashes_.push_back({HostIndex(event.host), static_cast<Picoseconds>(event.at)});
          break;
        case TopoFault::Kind::kRestart:
          restarts_.push_back({HostIndex(event.host), static_cast<Picoseconds>(event.at)});
          break;
        case TopoFault::Kind::kPartition: {
          Window w;
          w.from = static_cast<Picoseconds>(event.from);
          w.until = static_cast<Picoseconds>(event.until);
          for (const std::string& h : event.group_a) w.named.push_back(HostIndex(h));
          for (const std::string& h : event.group_b) w.named.push_back(HostIndex(h));
          windows_.push_back(std::move(w));
          break;
        }
      }
    }
  }

  // Runs every invariant over one outcome; detection latencies are observed
  // into `latency_us` (microseconds) for the Prometheus artifact.
  std::vector<std::string> Check(const RunOutcome& run, Histogram& latency_us) const {
    std::vector<std::string> violations;
    CheckCompleteness(run, latency_us, violations);
    // Accuracy, rejoin, and agreement are SWIM's *probabilistic* promises:
    // under armed link impairment a lost probe response legitimately looks
    // like a death, and the resulting (correct-protocol) false positive
    // gossips cluster-wide. With loss in the plan only the hard guarantees
    // are enforced — completeness above, determinism in the caller.
    if (!lossy_) {
      CheckAccuracy(run, violations);
      CheckRejoin(run, violations);
      CheckAgreement(run, violations);
    }
    return violations;
  }

  bool lossy() const { return lossy_; }

 private:
  struct LifeEvent {
    usize host = 0;
    Picoseconds at = 0;
  };
  struct Window {
    Picoseconds from = 0;
    Picoseconds until = 0;
    std::vector<usize> named;
  };

  usize HostIndex(const std::string& name) const {
    for (usize i = 0; i < opt_.hosts; ++i) {
      if (HostName(i) == name) return i;
    }
    return opt_.hosts;  // ChaosDirector::Apply already rejected unknowns
  }

  // Host lifecycle replay: up unless a crash (or power-cycle restart window)
  // has it down at `t`. Mirrors SimHost's state machine.
  bool UpAt(usize host, Picoseconds t) const {
    bool up = true;
    // Events in plan order are already time-ordered per host in practice;
    // scan both lists merged by time for robustness.
    std::vector<std::pair<Picoseconds, bool>> timeline;  // (time, is_crash)
    for (const LifeEvent& c : crashes_) {
      if (c.host == host) timeline.push_back({c.at, true});
    }
    for (const LifeEvent& r : restarts_) {
      if (r.host == host) timeline.push_back({r.at, false});
    }
    std::sort(timeline.begin(), timeline.end());
    for (const auto& [at, is_crash] : timeline) {
      if (at > t) break;
      if (is_crash) {
        up = false;
      } else {
        // Restart: down for the boot window, then up.
        up = at + kBootDelay <= t;
      }
    }
    return up;
  }

  bool CrashedWithin(usize host, Picoseconds t0, Picoseconds t1) const {
    for (const LifeEvent& c : crashes_) {
      if (c.host == host && c.at >= t0 && c.at <= t1) return true;
    }
    for (const LifeEvent& r : restarts_) {
      // A restart is a power-cycle: the host is down for the boot window.
      if (r.host == host && r.at >= t0 && r.at <= t1) return true;
    }
    return false;
  }

  bool UpThroughout(usize host, Picoseconds t0, Picoseconds t1) const {
    return UpAt(host, t0) && !CrashedWithin(host, t0, t1);
  }

  // True when some partition window naming `host` overlaps [t0, t1].
  bool PartitionNamed(usize host, Picoseconds t0, Picoseconds t1) const {
    for (const Window& w : windows_) {
      if (w.from >= t1 || w.until <= t0) continue;
      for (usize named : w.named) {
        if (named == host) return true;
      }
    }
    return false;
  }

  // First Dead(subject) logged by `observer` in [t0, t1], or -1.
  Picoseconds FirstDead(const RunOutcome& run, usize observer, usize subject,
                        Picoseconds t0, Picoseconds t1) const {
    for (const SwimEvent& e : run.swim_events[observer]) {
      if (e.subject == subject && e.state == SwimState::kDead && e.at >= t0 && e.at <= t1) {
        return e.at;
      }
    }
    return static_cast<Picoseconds>(-1);
  }

  void CheckCompleteness(const RunOutcome& run, Histogram& latency_us,
                         std::vector<std::string>& out) const {
    for (const LifeEvent& crash : crashes_) {
      const Picoseconds deadline = crash.at + bound_;
      if (deadline > horizon_) continue;  // window does not fit the run
      bool interrupted = false;
      for (const LifeEvent& r : restarts_) {
        if (r.host == crash.host && r.at >= crash.at && r.at < deadline) interrupted = true;
      }
      if (interrupted) continue;
      for (usize o = 0; o < opt_.hosts; ++o) {
        if (o == crash.host || !UpThroughout(o, crash.at, deadline)) continue;
        const Picoseconds at = FirstDead(run, o, crash.host, crash.at, deadline);
        if (at == static_cast<Picoseconds>(-1)) {
          out.push_back("completeness: " + HostName(o) + " never declared " +
                        HostName(crash.host) + " dead within " +
                        std::to_string(bound_ / kPicosPerMilli) + "ms of its crash");
        } else {
          latency_us.Observe((at - crash.at) / kPicosPerMicro);
        }
      }
    }
  }

  void CheckAccuracy(const RunOutcome& run, std::vector<std::string>& out) const {
    for (usize o = 0; o < opt_.hosts; ++o) {
      for (const SwimEvent& e : run.swim_events[o]) {
        if (e.state != SwimState::kDead) continue;
        const usize s = e.subject;
        const Picoseconds window_start = e.at > bound_ ? e.at - bound_ : 0;
        // Justified if the subject was actually down at some point in the
        // preceding bound (detection lag applies to true deaths too) ...
        if (!UpAt(s, e.at) || CrashedWithin(s, window_start, e.at)) continue;
        // ... or a partition naming the subject overlapped that window
        // (gossip spreads partition-induced deaths to every observer).
        if (PartitionNamed(s, window_start, e.at)) continue;
        out.push_back("accuracy: false positive — " + HostName(o) + " declared " +
                      HostName(s) + " dead at " + std::to_string(e.at / kPicosPerMilli) +
                      "ms with no crash or partition to justify it");
      }
    }
  }

  void CheckRejoin(const RunOutcome& run, std::vector<std::string>& out) const {
    for (const LifeEvent& restart : restarts_) {
      const Picoseconds completion = restart.at + kBootDelay;
      const Picoseconds deadline = completion + bound_;
      if (deadline > horizon_) continue;
      bool crashed_again = false;
      for (const LifeEvent& c : crashes_) {
        if (c.host == restart.host && c.at >= restart.at) crashed_again = true;
      }
      if (crashed_again) continue;
      for (usize o = 0; o < opt_.hosts; ++o) {
        if (o == restart.host || !UpThroughout(o, completion, deadline)) continue;
        if (PartitionNamed(o, completion, deadline) ||
            PartitionNamed(restart.host, completion, deadline)) {
          continue;  // rejoin traffic may be blocked; agreement covers the tail
        }
        bool readmitted = false;
        for (const SwimEvent& e : run.swim_events[o]) {
          if (e.subject == restart.host && e.state == SwimState::kAlive &&
              e.incarnation >= 1 && e.at >= completion && e.at <= deadline) {
            readmitted = true;
            break;
          }
        }
        if (!readmitted) {
          out.push_back("rejoin: " + HostName(o) + " never re-admitted " +
                        HostName(restart.host) + " (alive, incarnation >= 1) within " +
                        std::to_string(bound_ / kPicosPerMilli) + "ms of its reboot");
        } else if (run.host_up[o] &&
                   run.final_state[o][restart.host] != SwimState::kAlive) {
          out.push_back("rejoin: " + HostName(o) + " re-admitted " +
                        HostName(restart.host) + " but ended the run with it non-alive");
        }
      }
    }
  }

  // Once the last chaos event (plus detection bound and boot window) has
  // passed, every pair of up hosts must agree the other is alive.
  void CheckAgreement(const RunOutcome& run, std::vector<std::string>& out) const {
    Picoseconds settle = 0;
    for (const LifeEvent& c : crashes_) settle = std::max(settle, c.at);
    for (const LifeEvent& r : restarts_) settle = std::max(settle, r.at + kBootDelay);
    for (const Window& w : windows_) settle = std::max(settle, w.until);
    if (settle + bound_ > horizon_) {
      return;  // the run ends before the cluster can have settled
    }
    for (usize o = 0; o < opt_.hosts; ++o) {
      if (!run.host_up[o]) continue;
      for (usize s = 0; s < opt_.hosts; ++s) {
        if (s == o || !run.host_up[s]) continue;
        if (run.final_state[o][s] != SwimState::kAlive) {
          out.push_back("agreement: " + HostName(o) + " ended the run believing " +
                        HostName(s) + " is " +
                        SwimStateName(run.final_state[o][s]));
        }
      }
    }
  }

  SoakOptions opt_;
  Picoseconds bound_ = 0;
  Picoseconds horizon_ = 0;
  bool lossy_ = false;
  std::vector<LifeEvent> crashes_;
  std::vector<LifeEvent> restarts_;
  std::vector<Window> windows_;
};

// --- The soak -----------------------------------------------------------------

// The emu-pulse dashboard of the threads run: host-0 SWIM telemetry.
const std::vector<obs::ChartSpec> kCharts = {
    {"Probe rate", "pings/s", {"swim.h0.pings_sent"}, true},
    {"Live members (h0 view)", "members", {"swim.h0.alive_members"}, false},
    {"Failure declarations", "cumulative",
     {"swim.h0.suspects_declared", "swim.h0.deads_declared"}, false},
    {"Gossip fanout", "entries", {"swim.h0.gossip_fanout.p50", "swim.h0.gossip_fanout.p99"},
     false},
};

constexpr char kUsage[] =
    "usage: gossip_soak [--seed N] [--seeds N] [--hosts N] [--threads N]\n"
    "                   [--run-ms N] [--plan \"<topo plan>\"] [--prom FILE]\n"
    "                   [--log-dir DIR] [--slo CLAUSES] [--sample-us N]\n"
    "                   [--impair] [--verbose]\n"
    "--slo gates the cross-seed harness metrics at end of soak, e.g.\n"
    "  \"gossip.detection_latency_us.p99 <= 5000; gossip.violations_total <= 0\"\n"
    "plan grammar: crash host=<h> at=<t>; restart host=<h> at=<t>;\n"
    "              partition {a,b}|{c,d} from=<t> to=<t> [oneway];\n"
    "              link.<h>.{up,down}.{drop,corrupt,dup,reorder,delay} <schedule>\n"
    "--impair appends default loss/reorder clauses to the plan.\n"
    "--log-dir must already exist; one artifact file is written per seed.\n";

int Main(int argc, char** argv) {
  SoakOptions opt;
  bool impair = false;
  soak::SoakHarness harness("gossip_soak", kUsage, /*triple=*/true,
                            {.seeds = 5, .sample_us = 1000});
  if (!harness.ParseArgs(argc, argv,
                         {{"--hosts", &opt.hosts},
                          {"--run-ms", &opt.run_ms},
                          {"--plan", &opt.plan_text},
                          {"--impair", &impair}})) {
    return 2;
  }
  if (opt.hosts < 3 || opt.hosts > 64) {
    return harness.Usage();
  }
  if (impair) {
    opt.plan_text += kImpairClauses;
  }
  const Expected<FaultPlan> plan = ParseFaultPlan(opt.plan_text);
  if (!plan.ok()) {
    std::fprintf(stderr, "gossip_soak: bad plan: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  const soak::SoakConfig& cfg = harness.config();
  const SwimConfig swim_config = SoakSwimConfig(opt.run_ms);
  const Picoseconds bound = SwimDetectionBound(swim_config, opt.hosts);
  const InvariantChecker checker(*plan, opt, bound);

  std::printf("gossip_soak: hosts=%llu %s run=%llums detection-bound=%llums\n",
              static_cast<unsigned long long>(opt.hosts), harness.SeedRange().c_str(),
              static_cast<unsigned long long>(opt.run_ms),
              static_cast<unsigned long long>(bound / kPicosPerMilli));
  std::printf("plan: %s\n", opt.plan_text.c_str());
  if (checker.lossy()) {
    std::printf("link impairment armed: enforcing completeness + determinism only "
                "(accuracy/rejoin/agreement are probabilistic under loss)\n");
  }

  Histogram detection_latency_us;
  u64 runs_total = 0;
  u64 violations_total = 0;
  std::string last_prom;
  bool all_ok = true;

  for (u64 k = 0; k < cfg.seeds; ++k) {
    const u64 seed = cfg.seed + k;
    const RunOutcome serial = RunOnce(seed, 1, opt, harness);
    const RunOutcome parallel = RunOnce(seed, cfg.threads, opt, harness);
    const RunOutcome replay = RunOnce(seed, cfg.threads, opt, harness);
    runs_total += 3;
    last_prom = parallel.prom_text;
    // Invariants on the parallel run (the shipping configuration); the
    // digest cross-checks make the serial and replay runs equivalent.
    const std::vector<std::string> violations =
        harness.JudgeTriple(serial, parallel, replay, [&] {
          return checker.Check(parallel, detection_latency_us);
        });
    violations_total += violations.size();
    all_ok = all_ok && violations.empty();

    harness.PrintSeed(seed,
                      "events=" + std::to_string(parallel.events) +
                          " epochs=" + std::to_string(parallel.epochs),
                      parallel, violations);
    obs::DashboardOptions dash;
    dash.title = "gossip_soak seed " + std::to_string(seed);
    dash.subtitle = std::to_string(opt.hosts) + " hosts, threads run; host-0 SWIM telemetry";
    const std::string text =
        harness.SeedText(seed, "plan: " + opt.plan_text + "\n", serial, parallel, replay,
                         "\ninjection log:\n" + serial.injection_log, violations);
    harness.WriteArtifacts("seed" + std::to_string(seed), text, parallel, dash, kCharts,
                           obs::SloReport{});
  }

  if (detection_latency_us.count() > 0) {
    std::printf("detection latency: p50=%lluus p99=%lluus over %llu observations\n",
                static_cast<unsigned long long>(detection_latency_us.PercentileEstimate(50.0)),
                static_cast<unsigned long long>(detection_latency_us.PercentileEstimate(99.0)),
                static_cast<unsigned long long>(detection_latency_us.count()));
  }
  MetricsRegistry metrics;
  metrics.Register("gossip.runs_total", &runs_total);
  metrics.Register("gossip.violations_total", &violations_total);
  metrics.RegisterHistogram("gossip.detection_latency_us", &detection_latency_us);

  // The SLO gate runs over the cross-seed harness metrics (TryGet resolves
  // histogram `.p50`/`.p99` views) — a breach is a soak failure on its own.
  const obs::SloReport slo = harness.EvaluateSlo(obs::MakeRegistryLookup(metrics));
  harness.PrintSlo(slo);
  all_ok = all_ok && slo.ok;
  all_ok = harness.WriteProm(metrics.PrometheusText() + last_prom) && all_ok;
  return harness.Finish(all_ok);
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
