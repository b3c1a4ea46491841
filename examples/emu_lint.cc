// emu-lint: whole-design static elaboration and compile-time checks.
//
// Where emu_check must *drive traffic* to observe hazards, emu_lint walks the
// constructed design before a single Step() runs: every example design is
// instantiated, its elab::Catalog (filled in by the Reg/Wire/SyncFifo/BRAM/
// CAM constructors and the services' IoDecl declarations) is materialized
// into an ElabGraph, and the static check suite runs over the graph. The
// zero-traffic pass catches the whole-design mistakes dynamic monitoring
// structurally cannot — dead signals no test pokes, FIFO backpressure rings
// that only close under load, fault-plan patterns that match nothing.
//
//   ./build/examples/emu_lint                 # lint every design
//   ./build/examples/emu_lint nat memcached   # just these designs
//   ./build/examples/emu_lint --list          # check table (static/dynamic)
//   ./build/examples/emu_lint --json          # findings as a JSON array
//   ./build/examples/emu_lint --dot nat       # dump nat's elaborated graph
//   ./build/examples/emu_lint --suppress "DEADSIGNAL:dbg_*,COMBRACE"
//   ./build/examples/emu_lint --faults "nat.flows bernoulli 0.1"
//   ./build/examples/emu_lint --spec specs/chain_soak.spec   # CHAINSPEC checks
//
// Exit codes (the shared lint contract, src/analysis/finding.h):
//   0  clean — no unsuppressed Severity::kError finding
//   1  at least one unsuppressed error finding (warnings never fail the run)
//   2  usage error (unknown flag/design, unparsable plan or suppression)
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/elab/elab_graph.h"
#include "src/analysis/finding.h"
#include "src/analysis/hazard.h"
#include "src/chain/chain_lint.h"
#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/ip/pearson_hash.h"
#include "src/services/iptables_cli.h"
#include "src/services/l3l4_filter.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/topology.h"

namespace {

using namespace emu;  // example code; library code never does this

std::string g_fault_plan_text;  // set by --faults; also checked standalone

// Elaborates `sim` and runs the full static suite; appends findings. When
// `dot` is set the elaborated graph goes to stdout first.
std::vector<Finding> Elaborate(const Simulator& sim, const std::string& design, bool dot) {
  const elab::ElabGraph graph = elab::ElabGraph::FromSimulator(sim, design);
  if (dot) {
    graph.DumpDot(std::cout);
  }
  return graph.Check();
}

// --- Designs -----------------------------------------------------------------
//
// Each lint target constructs the same design as the corresponding example
// binary and elaborates it without driving a single frame.

std::vector<Finding> LintLearningSwitch(bool dot) {
  LearningSwitch service;
  FpgaTarget target(service);
  return Elaborate(target.sim(), "learning_switch", dot);
}

std::vector<Finding> LintL3L4Filter(bool dot) {
  auto ruleset = ParseIptablesScript(
      "-A FORWARD -p tcp --dport 80:443 -j DROP\n"
      "-A FORWARD -s 192.168.0.0/16 -j DROP\n");
  L3L4FilterConfig config;
  config.rules = ruleset->rules;
  config.default_action = ruleset->default_action;
  L3L4Filter service(config);
  FpgaTarget target(service);
  return Elaborate(target.sim(), "l3l4_filter", dot);
}

std::vector<Finding> LintNat(bool dot) {
  std::vector<Finding> findings;
  {
    NatConfig config;
    NatService service(config);
    FpgaTarget target(service);
    std::vector<Finding> fpga = Elaborate(target.sim(), "nat.fpga", dot);
    findings.insert(findings.end(), std::make_move_iterator(fpga.begin()),
                    std::make_move_iterator(fpga.end()));
  }
  {
    NatConfig config;
    NatService service(config);
    CpuTarget target(service);
    std::vector<Finding> cpu = Elaborate(target.sim(), "nat.cpu", false);
    findings.insert(findings.end(), std::make_move_iterator(cpu.begin()),
                    std::make_move_iterator(cpu.end()));
  }
  return findings;
}

std::vector<Finding> LintMemcached(bool dot) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  return Elaborate(target.sim(), "memcached", dot);
}

std::vector<Finding> LintDebugSession(bool dot) {
  MemcachedConfig config;
  MemcachedService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  DirectedService directed(service, controller);
  FpgaTarget target(directed);
  return Elaborate(target.sim(), "debug_session", dot);
}

std::vector<Finding> LintPearsonIp(bool dot) {
  Simulator sim;
  PearsonHashIp core(sim, "pearson");
  core.DeclareIo(sim.AddProcess(core.MakeProcess(), "pearson.core"));
  // The Fig. 5 seeding client is the other half of the handshake: without it
  // the core's enable/data_in registers have no producer and DEADPROCESS
  // fires (correctly — a core with no client can never receive work).
  const usize client = sim.AddProcess(PearsonHashIp::Seed(core, 0x5a), "pearson.client");
  elab::IoDecl(sim.catalog(), client)
      .Reads(&core.init_hash_ready())
      .Writes(&core.init_hash_enable())
      .Writes(&core.data_in())
      .Reads(&core.hash_out());
  return Elaborate(sim, "pearson_ip", dot);
}

// SHARDCUT: a sharded star around the NAT. Every host-node link direction
// crosses a shard boundary; the check validates each recorded cut's
// conservative lookahead. The per-shard simulators elaborate too.
std::vector<Finding> LintShardedNat(bool dot) {
  NatConfig config;
  NatService service(config);
  const std::vector<HostSpec> specs = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  ShardedTopology topo(service, specs);
  std::vector<Finding> findings =
      Elaborate(topo.node(0).target().sim(), "sharded_nat.node0", dot);
  elab::CheckShardCuts(topo.runner(), "sharded_nat", findings);
  return findings;
}

// FAULTTARGET: the default chaos plan (or --faults) validated against the
// points the NAT + memcached designs actually register.
std::vector<Finding> LintFaultPlan(bool dot) {
  (void)dot;
  const std::string plan_text =
      !g_fault_plan_text.empty()
          ? g_fault_plan_text
          : "nat.table_full burst 3000 9000 0.5; nat.flows bernoulli 0.001; "
            "memcached.queue* burst 3000 9000 0.02 150; "
            "memcached.csum.fold oneshot 5000";
  const auto plan = ParseFaultPlan(plan_text);
  std::vector<Finding> findings;
  if (!plan.ok()) {
    Finding f;
    f.check = HazardKindName(HazardKind::kFaultTarget);
    f.severity = Severity::kError;
    f.design = "fault_plan";
    f.message = plan.status().ToString();
    findings.push_back(std::move(f));
    return findings;
  }
  // Points are created when the service instantiates onto a target, so the
  // registry must see fully-built designs (same construction as emu_check).
  FaultRegistry registry(1);
  NatConfig nat_config;
  NatService nat(nat_config);
  FpgaTarget nat_target(nat);
  nat.RegisterFaultPoints(registry);
  MemcachedConfig mc_config;
  mc_config.cores = 4;
  MemcachedService memcached(mc_config);
  FpgaTarget mc_target(memcached);
  memcached.RegisterFaultPoints(registry);
  elab::CheckFaultPlanTargets(*plan, registry, "fault_plan", findings);
  return findings;
}

// FAULTTARGET over topology-scoped events: the default gossip chaos plan
// (or --faults) validated against the gossip_soak cluster's host names —
// unknown hosts are errors, lifecycle-order oddities (restart without crash,
// double crash, crash inside a partition window naming the host) warnings.
std::vector<Finding> LintGossipPlan(bool dot) {
  (void)dot;
  const std::string plan_text =
      !g_fault_plan_text.empty()
          ? g_fault_plan_text
          : "crash host=h2 at=20ms; restart host=h2 at=120ms; "
            "partition {h0,h1}|{h3,h4} from=40ms to=70ms";
  const auto plan = ParseFaultPlan(plan_text);
  std::vector<Finding> findings;
  if (!plan.ok()) {
    Finding f;
    f.check = HazardKindName(HazardKind::kFaultTarget);
    f.severity = Severity::kError;
    f.design = "gossip_plan";
    f.message = plan.status().ToString();
    findings.push_back(std::move(f));
    return findings;
  }
  // The gossip_soak example names its cluster h0..h7 (examples/gossip_soak.cc).
  std::vector<std::string> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.push_back("h" + std::to_string(i));
  }
  elab::CheckTopoFaults(*plan, hosts, "gossip_plan", findings);
  return findings;
}

struct LintDesign {
  const char* name;
  const char* description;
  std::vector<Finding> (*run)(bool dot);
};

constexpr LintDesign kDesigns[] = {
    {"learning_switch", "L2 learning switch on the NetFPGA pipeline", LintLearningSwitch},
    {"l3l4_filter", "iptables-style filter in front of the switch", LintL3L4Filter},
    {"nat", "NAT elaborated on the hardware and software kernels", LintNat},
    {"memcached", "four-core memcached pipeline", LintMemcached},
    {"debug_session", "directed memcached with the CASP filter", LintDebugSession},
    {"pearson_ip", "PearsonHashIp core handshake registers", LintPearsonIp},
    {"sharded_nat", "sharded NAT star: cut lookahead + node elaboration", LintShardedNat},
    {"fault_plan", "chaos plan patterns vs registered fault points", LintFaultPlan},
    {"gossip_plan", "topology chaos events vs the gossip cluster's hosts", LintGossipPlan},
};

void PrintCheckTable() {
  std::printf("%-18s %-8s %-7s %-8s %s\n", "check", "severity", "static", "dynamic",
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
  std::vector<std::string> selected;
  std::vector<std::string> spec_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      PrintCheckTable();
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
      g_fault_plan_text = argv[++i];
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
  for (const std::string& name : selected) {
    const bool known = std::any_of(std::begin(kDesigns), std::end(kDesigns),
                                   [&](const LintDesign& d) { return name == d.name; });
    if (!known) {
      std::fprintf(stderr, "emu_lint: unknown design '%s' (see --list)\n", name.c_str());
      return kLintExitUsage;
    }
  }

  // --faults also scopes the CHAINSPEC placement-vs-crash check when --spec
  // files are given; an unparsable plan is a usage error in that mode.
  FaultPlan spec_plan;
  bool has_spec_plan = false;
  if (!spec_paths.empty() && !g_fault_plan_text.empty()) {
    const auto plan = ParseFaultPlan(g_fault_plan_text);
    if (!plan.ok()) {
      std::fprintf(stderr, "emu_lint: --faults: %s\n", plan.status().ToString().c_str());
      return kLintExitUsage;
    }
    spec_plan = *plan;
    has_spec_plan = true;
  }

  std::vector<Finding> all;
  // `--spec` alone lints only the spec files; designs still run when named.
  const bool run_designs = spec_paths.empty() || !selected.empty();
  for (const LintDesign& design : kDesigns) {
    if (!run_designs) {
      break;
    }
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), design.name) == selected.end()) {
      continue;
    }
    std::vector<Finding> findings = design.run(dot_target == design.name);
    if (!json) {
      std::printf("%-16s %zu finding(s)\n", design.name, findings.size());
    }
    all.insert(all.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  for (const std::string& path : spec_paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "emu_lint: cannot read spec file '%s'\n", path.c_str());
      return kLintExitUsage;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Finding> findings =
        CheckChainSpecText(text.str(), path, has_spec_plan ? &spec_plan : nullptr);
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
