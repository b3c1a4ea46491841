// emu-lint: the design-rule tool. Every example design is built once and
// checked in two passes that share one report:
//
//   static   before the first edge, the design's elab::Catalog (filled in by
//            the Reg/Wire/SyncFifo/BRAM/CAM constructors and the services'
//            IoDecl declarations) is materialized into an ElabGraph and the
//            static check suite runs over it. It catches the whole-design
//            mistakes traffic structurally cannot: dead signals no test
//            pokes, FIFO backpressure rings that only close under load,
//            fault-plan patterns that match nothing.
//   dynamic  in EMU_ANALYSIS builds the design is then driven with
//            representative traffic under a HazardMonitor: multi-driven
//            register, combinational race, read-of-uninitialized, lost
//            backpressure, runaway process, post-mortem Step, and COMBLOOP
//            over the IO each process was seen to perform.
//
//   ./build/examples/emu_lint                 # both passes over every design
//   ./build/examples/emu_lint nat memcached   # just these designs
//   ./build/examples/emu_lint --list          # designs and the check table
//   ./build/examples/emu_lint --json          # findings as a JSON array
//   ./build/examples/emu_lint --dot nat       # nat's declared, then observed graph
//   ./build/examples/emu_lint --suppress "DEADSIGNAL:dbg_*,COMBRACE"
//   ./build/examples/emu_lint --faults "nat.flows bernoulli 0.1"
//   ./build/examples/emu_lint --spec specs/chain_soak.spec   # CHAINSPEC checks
//
// Exit codes (the shared lint contract, src/analysis/finding.h):
//   0  clean — no unsuppressed Severity::kError finding
//   1  at least one unsuppressed error finding (warnings never fail the run)
//   2  usage error (unknown flag or design, a --dot design that is unknown
//      or not selected, unparsable --faults plan, unreadable spec file)
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/elab/elab_graph.h"
#include "src/analysis/finding.h"
#include "src/analysis/hazard.h"
#include "src/analysis/hazard_monitor.h"
#include "src/chain/chain_lint.h"
#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/ip/pearson_hash.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/services/iptables_cli.h"
#include "src/services/l3l4_filter.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace {

using namespace emu;  // example code; library code never does this

#ifdef EMU_ANALYSIS
constexpr bool kDynamicPass = true;
#else
constexpr bool kDynamicPass = false;  // the kernel has no hooks to observe
#endif

// One design's run: the findings of both passes, whether any simulator was
// driven, and a note for the design's summary row.
class DesignRun {
 public:
  DesignRun(bool dot, const FaultPlan* plan) : dot_(dot), plan_(plan) {}

  // The static suite over `sim` before its first edge, then — when `drive`
  // is given and the build has the hooks — `drive` under a HazardMonitor and
  // COMBLOOP over what it observed. --dot prints the design's first
  // simulator: its declared graph, then its observed one.
  void Check(Simulator& sim, const std::string& design,
             const std::function<void()>& drive = nullptr) {
    const bool dot = std::exchange(dot_, false);
    const elab::ElabGraph graph = elab::ElabGraph::FromSimulator(sim, design);
    if (dot) {
      graph.DumpDot(std::cout);
    }
    std::vector<Finding> found = graph.Check();
    findings.insert(findings.end(), std::make_move_iterator(found.begin()),
                    std::make_move_iterator(found.end()));
    if (!drive || !kDynamicPass) {
      return;
    }
    HazardMonitor monitor(sim);
    drive();
    monitor.AnalyzeCombinationalGraph();
    if (dot) {
      monitor.ObservedGraph(design).DumpDot(std::cout);
    }
    for (const HazardReport& report : monitor.reports()) {
      findings.push_back(FindingFromReport(report, design));
    }
    driven = true;
  }

  // The --faults plan, or `default_text` when none was given.
  FaultPlan PlanOr(const char* default_text) const {
    return plan_ != nullptr ? *plan_ : ParseFaultPlan(default_text).value();
  }

  std::vector<Finding> findings;
  bool driven = false;
  std::string note;

 private:
  bool dot_;
  const FaultPlan* plan_;
};

// --- Designs -----------------------------------------------------------------
//
// Each constructs the same design as the corresponding example binary.

void LintLearningSwitch(DesignRun& run) {
  const MacAddress alice = MacAddress::Parse("02:00:00:00:00:0a").value();
  const MacAddress bob = MacAddress::Parse("02:00:00:00:00:0b").value();
  const auto frame = [](MacAddress dst, MacAddress src) {
    return MakeUdpPacket(
        {dst, src, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 4000, 9},
        std::vector<u8>{'h', 'i'});
  };
  LearningSwitch service;
  FpgaTarget target(service);
  run.Check(target.sim(), "learning_switch", [&] {
    target.Inject(0, frame(bob, alice));  // flood
    target.RunUntilEgressCount(3, 100'000);
    target.Inject(2, frame(alice, bob));  // learn + unicast back
    target.RunUntilEgressCount(4, 100'000);
    target.Inject(0, frame(bob, alice));  // unicast
    target.RunUntilEgressCount(5, 100'000);
  });
}

void LintL3L4Filter(DesignRun& run) {
  auto ruleset = ParseIptablesScript(
      "-A FORWARD -p tcp --dport 80:443 -j DROP\n"
      "-A FORWARD -s 192.168.0.0/16 -j DROP\n");
  L3L4FilterConfig config;
  config.rules = ruleset->rules;
  config.default_action = ruleset->default_action;
  L3L4Filter service(config);
  FpgaTarget target(service);
  const MacAddress a = MacAddress::Parse("02:00:00:00:00:0a").value();
  const MacAddress b = MacAddress::Parse("02:00:00:00:00:0b").value();
  run.Check(target.sim(), "l3l4_filter", [&] {
    target.Inject(0, MakeTcpSegment({b, a, Ipv4Address(10, 0, 0, 5),
                                     Ipv4Address(10, 0, 1, 1), 50001, 22, 1, 0,
                                     TcpFlags::kSyn}));
    target.Inject(0, MakeTcpSegment({b, a, Ipv4Address(10, 0, 0, 5),
                                     Ipv4Address(10, 0, 1, 1), 50002, 80, 1, 0,
                                     TcpFlags::kSyn}));
    target.Inject(0, MakeUdpPacket({b, a, Ipv4Address(10, 0, 0, 5),
                                    Ipv4Address(10, 0, 1, 1), 50004, 53},
                                   std::vector<u8>{1}));
    target.Run(100'000);
    target.TakeEgress();
  });
}

// The same NAT on the hardware and software kernels (§3.3).
void LintNat(DesignRun& run) {
  const NatConfig config;
  const MacAddress host_mac = MacAddress::Parse("02:00:00:00:11:10").value();
  const auto outbound = [&] {
    Packet frame = MakeUdpPacket({config.internal_mac, host_mac, Ipv4Address(192, 168, 1, 10),
                                  Ipv4Address(8, 8, 8, 8), 5000, 53},
                                 std::vector<u8>{'p', 'i', 'n', 'g'});
    frame.set_src_port(1);
    return frame;
  };
  {
    NatService service(config);
    FpgaTarget target(service);
    run.Check(target.sim(), "nat.fpga", [&] { target.SendAndCollect(1, outbound()); });
  }
  {
    NatService service(config);
    CpuTarget target(service);
    run.Check(target.sim(), "nat.cpu", [&] { target.Deliver(outbound()); });
  }
}

void LintMemcached(DesignRun& run) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 64;
  MemaslapLoadgen loadgen(workload);
  run.Check(target.sim(), "memcached", [&] {
    for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
      target.SendAndCollect(0, loadgen.PrewarmFrame(i));
    }
    for (usize i = 0; i < 200; ++i) {
      target.SendAndCollect(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    }
    target.TakeEgress();
  });
}

// The §5.5 debug session, sans bug: direction packets mixed into traffic.
void LintDebugSession(DesignRun& run) {
  const MacAddress director = MacAddress::Parse("02:00:00:00:d0:01").value();
  const MacAddress client = MacAddress::Parse("02:00:00:00:cc:01").value();
  MemcachedConfig config;
  MemcachedService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  DirectedService directed(service, controller);
  FpgaTarget target(directed);
  const auto mc_frame = [&](McRequest request) {
    request.protocol = config.protocol;
    return MakeUdpPacket({config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip, 31000,
                          kMemcachedPort},
                         BuildMcRequest(request));
  };
  const auto command = [&](u16 seq, const std::string& text) {
    return MakeDirectionPacket(config.mac, director, DirectionPacketKind::kCommand, seq, text);
  };
  run.Check(target.sim(), "debug_session", [&] {
    McRequest set;
    set.op = McOpcode::kSet;
    set.key = "image";
    set.value = std::string(64, 'x');
    target.SendAndCollect(0, mc_frame(set));
    McRequest get;
    get.op = McOpcode::kGet;
    get.key = "image";
    target.SendAndCollect(0, mc_frame(get));
    target.SendAndCollect(0, command(1, "print checksum"));
    target.SendAndCollect(0, command(2, "count calls handle_request"));
    target.SendAndCollect(0, mc_frame(get));
    target.TakeEgress();
  });
}

// The Fig. 5 handshake: the core plus its seeding client. The client is the
// other half of the handshake — without it the core's enable/data_in
// registers have no producer and DEADPROCESS fires (correctly: a core with
// no client can never receive work).
void LintPearsonIp(DesignRun& run) {
  static constexpr std::array<u8, 3> kSeed = {'e', 'm', 'u'};
  Simulator sim;
  PearsonHashIp core(sim, "pearson");
  core.DeclareIo(sim.AddProcess(core.MakeProcess(), "pearson.core"));
  const usize client = sim.AddProcess(PearsonHashIp::Seed(core, kSeed), "pearson.client");
  elab::IoDecl(sim.catalog(), client)
      .Reads(&core.init_hash_ready())
      .Writes(&core.init_hash_enable())
      .Writes(&core.data_in());
  run.Check(sim, "pearson_ip", [&] {
    if (!sim.RunUntil([&] { return sim.live_process_count() == 1; }, 200)) {
      std::fprintf(stderr, "emu_lint: pearson handshake stalled\n");
    }
  });
}

// SHARDCUT: a sharded star around the NAT. Every host-node link direction
// crosses a shard boundary; the check validates each recorded cut's
// conservative lookahead. The per-shard simulators elaborate too.
void LintShardedNat(DesignRun& run) {
  NatConfig config;
  NatService service(config);
  const std::vector<HostSpec> specs = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  TopologyBuilder topo;
  topo.BuildStar(service, specs);
  run.Check(topo.node(0).target().sim(), "sharded_nat.node0");
  elab::CheckShardCuts(topo.runner(), "sharded_nat", run.findings);
}

// One FpgaTarget with the registry a fault plan is checked against and then
// armed on: the service's own points plus the `ingress` tap in front of it.
struct FaultedTarget {
  explicit FaultedTarget(Service& service) : target(service) {
    service.RegisterFaultPoints(registry);
  }

  // With the plan armed and the registry ticked per executed edge, drives a
  // frame from `factory` into `port` through the tap every 97 cycles for
  // 15,000 cycles, then disarms and drains — a miniature of chaos_soak.
  void Soak(const FaultPlan& plan, const std::function<Packet(usize)>& factory, u8 port) {
    constexpr Cycle kGap = 97;
    constexpr Cycle kCycles = 15'000;
    registry.ArmPlan(plan);
    target.sim().AttachFaultRegistry(&registry);
    usize index = 0;
    for (Cycle cycle = 0; cycle < kCycles; cycle += kGap) {
      Packet frame = factory(index++);
      const FrameImpairer::Decision d = tap.Decide(target.sim().now(), frame.size());
      if (!d.drop) {
        if (d.corrupt_bit != FrameImpairer::kNoCorrupt) {
          FrameImpairer::FlipBit(frame, d.corrupt_bit);
        }
        target.Inject(port, std::move(frame));
      }
      target.Run(std::min(kGap, kCycles - cycle));
    }
    registry.DisarmAll();
    target.Run(100'000);
    target.TakeEgress();
    target.sim().AttachFaultRegistry(nullptr);
  }

  FpgaTarget target;
  FaultRegistry registry{7};
  FrameImpairer tap{registry, "ingress"};
};

// FAULTTARGET, then the plan armed. The --faults plan (or the default chaos
// plan) is checked against exactly the registries it is then armed on, and
// NAT and four-core memcached are driven under it. The design rule: an
// injected fault must surface as degradation (drops, rejects,
// backpressure), never as a kernel-rule violation — a service that turns a
// FIFO stall into a blind Push or an SEU into an uninitialized read fails.
void LintFaultPlan(DesignRun& run) {
  const FaultPlan plan = run.PlanOr(
      "ingress.drop bernoulli 0.02; ingress.corrupt bernoulli 0.02; "
      "nat.table_full burst 3000 9000 0.5; nat.flows bernoulli 0.001; "
      "memcached.queue* burst 3000 9000 0.02 150; memcached.csum.fold oneshot 5000");
  const NatConfig nat_config;
  NatService nat(nat_config);
  FaultedTarget nat_target(nat);
  MemcachedConfig mc_config;
  mc_config.cores = 4;
  MemcachedService memcached(mc_config);
  FaultedTarget mc_target(memcached);
  elab::CheckFaultPlanTargets(plan, {&nat_target.registry, &mc_target.registry}, "fault_plan",
                              run.findings);

  const MacAddress host_mac = MacAddress::Parse("02:00:00:00:11:10").value();
  run.Check(nat_target.target.sim(), "fault_plan.nat", [&] {
    nat_target.Soak(plan, [&](usize i) {
      Packet frame = MakeUdpPacket({nat_config.internal_mac, host_mac,
                                    Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8),
                                    static_cast<u16>(5000 + i), 53},
                                   std::vector<u8>{'p'});
      frame.set_src_port(1);
      return frame;
    }, /*port=*/1);
  });
  MemaslapConfig workload;
  workload.server_mac = mc_config.mac;
  workload.server_ip = mc_config.ip;
  workload.key_space = 64;
  MemaslapLoadgen loadgen(workload);
  run.Check(mc_target.target.sim(), "fault_plan.memcached", [&] {
    for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
      mc_target.target.SendAndCollect(0, loadgen.PrewarmFrame(i));
    }
    mc_target.Soak(plan, [&](usize i) { return loadgen.WorkloadFrame(i); }, /*port=*/0);
  });
  if (run.driven) {
    run.note = "; faults fired: nat " + std::to_string(nat_target.registry.fired_total()) +
               ", memcached " + std::to_string(mc_target.registry.fired_total());
  }
}

// FAULTTARGET over topology-scoped events: the --faults plan (or the default
// gossip chaos plan) validated against the gossip_soak cluster's host names —
// unknown hosts are errors, lifecycle-order oddities (restart without crash,
// double crash, crash inside a partition window naming the host) warnings.
void LintGossipPlan(DesignRun& run) {
  const FaultPlan plan = run.PlanOr(
      "crash host=h2 at=20ms; restart host=h2 at=120ms; "
      "partition {h0,h1}|{h3,h4} from=40ms to=70ms");
  // The gossip_soak example names its cluster h0..h7 (examples/gossip_soak.cc).
  std::vector<std::string> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back("h" + std::to_string(i));
  }
  elab::CheckTopoFaults(plan, hosts, "gossip_plan", run.findings);
}

struct LintDesign {
  const char* name;
  const char* description;
  void (*run)(DesignRun& run);
};

constexpr LintDesign kDesigns[] = {
    {"learning_switch", "L2 learning switch on the NetFPGA pipeline", LintLearningSwitch},
    {"l3l4_filter", "iptables-style filter in front of the switch", LintL3L4Filter},
    {"nat", "NAT on the hardware and software kernels", LintNat},
    {"memcached", "four-core memcached under memaslap load", LintMemcached},
    {"debug_session", "directed memcached with direction packets", LintDebugSession},
    {"pearson_ip", "PearsonHashIp ready/enable handshake", LintPearsonIp},
    {"sharded_nat", "sharded NAT star: cut lookahead + node elaboration", LintShardedNat},
    {"fault_plan", "NAT + memcached under the fault plan they register", LintFaultPlan},
    {"gossip_plan", "topology chaos events vs the gossip cluster's hosts", LintGossipPlan},
};

void PrintList() {
  std::printf("designs:\n");
  for (const LintDesign& design : kDesigns) {
    std::printf("  %-16s %s\n", design.name, design.description);
  }
  std::printf("\n%-18s %-8s %-7s %-8s %s\n", "check", "severity", "static", "dynamic",
              "description");
  for (const CheckInfo& info : CheckRegistry()) {
    std::printf("%-18s %-8s %-7s %-8s %s\n", info.name,
                info.default_severity == Severity::kError ? "error" : "warning",
                info.static_pass ? "yes" : "-", info.dynamic_pass ? "yes" : "-",
                info.description);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string dot_target;
  std::string suppress_text;
  std::string plan_text;
  std::vector<std::string> selected;
  std::vector<std::string> spec_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      PrintList();
      return kLintExitClean;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--dot" && i + 1 < argc) {
      dot_target = argv[++i];
      continue;
    }
    if (arg == "--suppress" && i + 1 < argc) {
      if (!suppress_text.empty()) {
        suppress_text += '\n';
      }
      suppress_text += argv[++i];
      continue;
    }
    if (arg == "--faults" && i + 1 < argc) {
      plan_text = argv[++i];
      continue;
    }
    if (arg == "--spec" && i + 1 < argc) {
      spec_paths.push_back(argv[++i]);
      continue;
    }
    if (!arg.empty() && arg[0] != '-') {
      selected.push_back(arg);
      continue;
    }
    std::fprintf(stderr,
                 "usage: emu_lint [--list] [--json] [--dot <design>] "
                 "[--suppress \"SPEC\"] [--faults \"<plan>\"] "
                 "[--spec <file>]... [design...]\n");
    return kLintExitUsage;
  }
  const auto known = [](const std::string& name) {
    return std::any_of(std::begin(kDesigns), std::end(kDesigns),
                       [&](const LintDesign& d) { return name == d.name; });
  };
  for (const std::string& name : selected) {
    if (!known(name)) {
      std::fprintf(stderr, "emu_lint: unknown design '%s' (see --list)\n", name.c_str());
      return kLintExitUsage;
    }
  }
  // `--spec` alone lints only the spec files; designs still run when named.
  const bool run_designs = spec_paths.empty() || !selected.empty();
  if (!dot_target.empty()) {
    if (!known(dot_target)) {
      std::fprintf(stderr, "emu_lint: --dot: unknown design '%s' (see --list)\n",
                   dot_target.c_str());
      return kLintExitUsage;
    }
    if (!run_designs || (!selected.empty() && std::find(selected.begin(), selected.end(),
                                                        dot_target) == selected.end())) {
      std::fprintf(stderr, "emu_lint: --dot: design '%s' is not among the selected designs\n",
                   dot_target.c_str());
      return kLintExitUsage;
    }
  }

  // The one parse of --faults: the plan designs check and arm it, and the
  // CHAINSPEC placement-vs-crash check scopes to it.
  std::optional<FaultPlan> plan;
  if (!plan_text.empty()) {
    Expected<FaultPlan> parsed = ParseFaultPlan(plan_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "emu_lint: --faults: %s\n", parsed.status().ToString().c_str());
      return kLintExitUsage;
    }
    plan = std::move(*parsed);
  }
  const FaultPlan* plan_ptr = plan.has_value() ? &*plan : nullptr;

  std::vector<Finding> all;
  if (run_designs && !kDynamicPass) {
    std::fprintf(stderr,
                 "emu_lint: dynamic pass compiled out (built with -DEMU_ANALYSIS=OFF); "
                 "running the static pass only\n");
  }
  for (const LintDesign& design : kDesigns) {
    if (!run_designs) {
      break;
    }
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), design.name) == selected.end()) {
      continue;
    }
    DesignRun run(dot_target == design.name, plan_ptr);
    design.run(run);
    if (!json) {
      std::printf("%-16s %zu finding(s), %s%s\n", design.name, run.findings.size(),
                  run.driven ? "static+dynamic" : "static", run.note.c_str());
    }
    all.insert(all.end(), std::make_move_iterator(run.findings.begin()),
               std::make_move_iterator(run.findings.end()));
  }
  for (const std::string& path : spec_paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "emu_lint: cannot read spec file '%s'\n", path.c_str());
      return kLintExitUsage;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Finding> findings = CheckChainSpecText(text.str(), path, plan_ptr);
    if (!json) {
      std::printf("%-16s %zu finding(s)\n", path.c_str(), findings.size());
    }
    all.insert(all.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }

  usize suppressed = 0;
  if (!suppress_text.empty()) {
    all = ApplySuppressions(std::move(all), ParseSuppressions(suppress_text), &suppressed);
  }

  if (json) {
    FormatFindingsJson(std::cout, all);
  } else {
    if (!all.empty()) {
      std::printf("\n");
      FormatFindingsText(std::cout, all);
    }
    const usize errors = CountErrors(all);
    std::printf("\nemu-lint: %zu finding(s), %zu error(s), %zu suppressed\n", all.size(),
                errors, suppressed);
  }
  return LintExitCode(all);
}
