// emu-check: run every example design plus the full NetFPGA pipeline under
// the hazard monitor and report design-rule violations.
//
//   ./build/examples/emu_check             # run all designs, exit 1 on findings
//   ./build/examples/emu_check --list      # list designs and checks
//   ./build/examples/emu_check --dot nat   # also dump nat's observed graph
//
// Each scenario instantiates a real design (the same construction as the
// corresponding example binary), attaches a HazardMonitor to its Simulator,
// drives representative traffic, then lowers the IO each process was seen to
// perform into an ElabGraph and runs emu-lint's COMBLOOP check on it
// (HazardMonitor::ObservedGraph; --dot prints it in emu-lint's DOT format).
// Findings — multi-driven register, combinational race, read-of-
// uninitialized, lost backpressure, runaway process, post-mortem Step,
// combinational loop — are reported in the shared emu-lint finding shape. A
// clean exit is the repo's design-rule gate, wired into CI.
//
// Exit codes (the shared lint contract, src/analysis/finding.h):
//   0  clean — no Severity::kError finding anywhere
//   1  at least one error finding (warnings alone never fail the run)
//   2  usage/configuration error: bad flag, unparsable --faults plan, or the
//      binary was built with -DEMU_ANALYSIS=OFF and cannot analyze at all
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/analysis/hazard.h"
#include "src/analysis/hazard_monitor.h"

#ifdef EMU_ANALYSIS

#include "src/analysis/elab/elab_graph.h"
#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/hdl/simulator.h"
#include "src/ip/pearson_hash.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/services/iptables_cli.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"

namespace {

using namespace emu;  // example code; library code never does this

struct ScenarioResult {
  std::vector<Finding> findings;
  std::string summary;
  bool usage_error = false;  // bad CLI input (e.g. --faults plan): exit 2
};

// Runs `drive` against a monitor attached to `sim`, then the static pass.
// Every scenario funnels through here so the reporting shape is identical:
// each HazardReport becomes a shared Finding tagged with the design name.
ScenarioResult Observe(const std::string& design, Simulator& sim, bool dot,
                       const std::function<void()>& drive) {
  HazardMonitor monitor(sim);
  monitor.set_echo(true);
  drive();
  monitor.AnalyzeCombinationalGraph();
  if (dot) {
    monitor.ObservedGraph(design).DumpDot(std::cout);
  }
  std::string summary = monitor.Summary();
  while (!summary.empty() && summary.back() == '\n') {
    summary.pop_back();
  }
  ScenarioResult result;
  result.summary = std::move(summary);
  for (const HazardReport& report : monitor.reports()) {
    result.findings.push_back(FindingFromReport(report, design));
  }
  return result;
}

void Merge(ScenarioResult& into, ScenarioResult from) {
  into.findings.insert(into.findings.end(),
                       std::make_move_iterator(from.findings.begin()),
                       std::make_move_iterator(from.findings.end()));
  into.usage_error = into.usage_error || from.usage_error;
}

// --- Scenario: L2 learning switch (quickstart) on the full pipeline ---
ScenarioResult CheckLearningSwitch(bool dot) {
  const MacAddress alice = MacAddress::Parse("02:00:00:00:00:0a").value();
  const MacAddress bob = MacAddress::Parse("02:00:00:00:00:0b").value();
  const auto frame = [](MacAddress dst, MacAddress src) {
    return MakeUdpPacket(
        {dst, src, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 4000, 9},
        std::vector<u8>{'h', 'i'});
  };
  LearningSwitch service;
  FpgaTarget target(service);
  return Observe("learning_switch", target.sim(), dot, [&] {
    target.Inject(0, frame(bob, alice));  // flood
    target.RunUntilEgressCount(3, 100'000);
    target.Inject(2, frame(alice, bob));  // learn + unicast back
    target.RunUntilEgressCount(4, 100'000);
    target.Inject(0, frame(bob, alice));  // unicast
    target.RunUntilEgressCount(5, 100'000);
  });
}

// --- Scenario: iptables-style L3-L4 filter in front of the switch ---
ScenarioResult CheckL3L4Filter(bool dot) {
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
  return Observe("l3l4_filter", target.sim(), dot, [&] {
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

// --- Scenario: NAT on both the hardware and software kernels (§3.3) ---
ScenarioResult CheckNat(bool dot) {
  NatConfig config;
  const MacAddress host_mac = MacAddress::Parse("02:00:00:00:11:10").value();
  const Ipv4Address host_ip(192, 168, 1, 10);
  const auto outbound = [&] {
    return MakeUdpPacket(
        {config.internal_mac, host_mac, host_ip, Ipv4Address(8, 8, 8, 8), 5000, 53},
        std::vector<u8>{'p', 'i', 'n', 'g'});
  };

  ScenarioResult result;
  {
    NatService service(config);
    FpgaTarget target(service);
    ScenarioResult fpga = Observe("nat.fpga", target.sim(), dot, [&] {
      Packet frame = outbound();
      frame.set_src_port(1);
      target.SendAndCollect(1, std::move(frame));
    });
    result.summary = "fpga: " + fpga.summary;
    Merge(result, std::move(fpga));
  }
  {
    NatService service(config);
    CpuTarget target(service);
    ScenarioResult cpu = Observe("nat.cpu", target.sim(), false, [&] {
      Packet frame = outbound();
      frame.set_src_port(1);
      target.Deliver(std::move(frame));
    });
    result.summary += " | cpu: " + cpu.summary;
    Merge(result, std::move(cpu));
  }
  return result;
}

// --- Scenario: four-core memcached under a memaslap-style workload ---
ScenarioResult CheckMemcached(bool dot) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 64;
  MemaslapLoadgen loadgen(workload);

  return Observe("memcached", target.sim(), dot, [&] {
    for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
      target.SendAndCollect(0, loadgen.PrewarmFrame(i));
    }
    for (usize i = 0; i < 200; ++i) {
      target.SendAndCollect(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    }
    target.TakeEgress();
  });
}

// --- Scenario: directed memcached (the §5.5 debug session, sans bug) ---
ScenarioResult CheckDebugSession(bool dot) {
  const MacAddress director = MacAddress::Parse("02:00:00:00:d0:01").value();
  const MacAddress client = MacAddress::Parse("02:00:00:00:cc:01").value();

  MemcachedConfig config;
  MemcachedService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  DirectedService directed(service, controller);
  FpgaTarget target(directed);

  const auto mc_frame = [&](const McRequest& request) {
    McRequest copy = request;
    copy.protocol = config.protocol;
    return MakeUdpPacket({config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip,
                          31000, kMemcachedPort},
                         BuildMcRequest(copy));
  };

  return Observe("debug_session", target.sim(), dot, [&] {
    McRequest set;
    set.op = McOpcode::kSet;
    set.key = "image";
    set.value = std::string(64, 'x');
    target.SendAndCollect(0, mc_frame(set));

    McRequest get;
    get.op = McOpcode::kGet;
    get.key = "image";
    target.SendAndCollect(0, mc_frame(get));

    // Mix direction packets in with normal traffic, as §5.5 does.
    target.SendAndCollect(
        0, MakeDirectionPacket(config.mac, director, DirectionPacketKind::kCommand,
                               1, "print checksum"));
    target.SendAndCollect(
        0, MakeDirectionPacket(config.mac, director, DirectionPacketKind::kCommand,
                               2, "count calls handle_request"));
    target.SendAndCollect(0, mc_frame(get));
    target.TakeEgress();
  });
}

// Client half of the Fig. 5 handshake, inlined as in ip_test.cc (coroutines
// cannot await sub-coroutines without an awaitable wrapper).
HwProcess SeedBytes(PearsonHashIp& core, std::span<const u8> data, Reg<bool>& done) {
  for (u8 byte : data) {
    while (!core.init_hash_ready().Read()) {
      co_await Pause();
    }
    core.data_in().Write(byte);
    core.init_hash_enable().Write(true);
    co_await Pause();
    core.init_hash_enable().Write(false);
    co_await Pause();
  }
  done.Write(true);
  for (;;) {
    co_await Pause();
  }
}

// --- Scenario: PearsonHashIp handshake micro-design (Fig. 5) ---
ScenarioResult CheckPearsonIp(bool dot) {
  Simulator sim;
  PearsonHashIp core(sim, "pearson");
  Reg<bool> done(sim, "pearson.done", false);
  const std::array<u8, 3> data = {'e', 'm', 'u'};
  sim.AddProcess(core.MakeProcess(), "pearson.core");
  sim.AddProcess(SeedBytes(core, data, done), "pearson.client");
  return Observe("pearson_ip", sim, dot, [&] {
    if (!sim.RunUntil([&] { return done.Read(); }, 200)) {
      std::fprintf(stderr, "emu_check: pearson handshake stalled\n");
    }
    sim.Run(2);
  });
}

// --- Scenario: services under an armed fault plan (emu-fault) ---
//
// The design rule being checked: injected faults must surface as degradation
// (drops, rejects, backpressure), never as kernel-rule violations. A service
// that turns a FIFO stall into a blind Push or an SEU into an uninitialized
// read fails here. `--faults <plan>` overrides the default plan.
std::string g_fault_plan_text;  // set by --faults

ScenarioResult CheckFaultInjection(bool dot) {
  const std::string plan_text =
      !g_fault_plan_text.empty()
          ? g_fault_plan_text
          : "ingress.drop bernoulli 0.02; ingress.corrupt bernoulli 0.02; "
            "nat.table_full burst 3000 9000 0.5; nat.flows bernoulli 0.001; "
            "memcached.queue* burst 3000 9000 0.02 150; "
            "memcached.csum.fold oneshot 5000";
  const auto plan = ParseFaultPlan(plan_text);
  if (!plan.ok()) {
    ScenarioResult bad;
    bad.usage_error = true;
    bad.summary = "bad --faults plan: " + plan.status().ToString();
    return bad;
  }

  // Drives frames through an impaired ingress tap with the registry attached
  // to the simulator (ticked per executed edge) — a miniature of
  // examples/chaos_soak.
  const auto soak = [&plan](FpgaTarget& target, Service& service,
                            const std::function<Packet(usize)>& factory, u8 port) {
    FaultRegistry registry(7);
    service.RegisterFaultPoints(registry);
    FrameImpairer tap(registry, "ingress");
    registry.ArmPlan(*plan);
    target.sim().AttachFaultRegistry(&registry);
    usize index = 0;
    constexpr Cycle kGap = 97;
    for (Cycle cycle = 0; cycle < 15'000; cycle += kGap) {
      Packet frame = factory(index++);
      const FrameImpairer::Decision d = tap.Decide(target.sim().now(), frame.size());
      if (!d.drop) {
        if (d.corrupt_bit != FrameImpairer::kNoCorrupt) {
          FrameImpairer::FlipBit(frame, d.corrupt_bit);
        }
        target.Inject(port, std::move(frame));
      }
      target.Run(std::min(kGap, 15'000 - cycle));
    }
    registry.DisarmAll();
    target.Run(100'000);
    target.TakeEgress();
    target.sim().AttachFaultRegistry(nullptr);
  };

  ScenarioResult result;
  {
    NatConfig config;
    const MacAddress host_mac = MacAddress::Parse("02:00:00:00:11:10").value();
    NatService service(config);
    FpgaTarget target(service);
    ScenarioResult nat = Observe("fault.nat", target.sim(), dot, [&] {
      soak(target, service, [&](usize i) {
        Packet frame = MakeUdpPacket(
            {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, 10),
             Ipv4Address(8, 8, 8, 8), static_cast<u16>(5000 + i), 53},
            std::vector<u8>{'p'});
        frame.set_src_port(1);
        return frame;
      }, /*port=*/1);
    });
    result.summary = "nat: " + nat.summary;
    Merge(result, std::move(nat));
  }
  {
    MemcachedConfig config;
    config.cores = 4;
    MemcachedService service(config);
    FpgaTarget target(service);
    MemaslapConfig workload;
    workload.server_mac = config.mac;
    workload.server_ip = config.ip;
    workload.key_space = 64;
    MemaslapLoadgen loadgen(workload);
    ScenarioResult mc = Observe("fault.memcached", target.sim(), false, [&] {
      for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
        target.SendAndCollect(0, loadgen.PrewarmFrame(i));
      }
      soak(target, service, [&](usize i) { return loadgen.WorkloadFrame(i); }, 0);
    });
    result.summary += " | memcached: " + mc.summary;
    Merge(result, std::move(mc));
  }
  return result;
}

struct Scenario {
  const char* name;
  const char* description;
  ScenarioResult (*run)(bool dot);
};

constexpr Scenario kScenarios[] = {
    {"learning_switch", "L2 learning switch on the NetFPGA pipeline", CheckLearningSwitch},
    {"l3l4_filter", "iptables-style filter in front of the switch", CheckL3L4Filter},
    {"nat", "NAT on the hardware and software kernels", CheckNat},
    {"memcached", "four-core memcached under memaslap load", CheckMemcached},
    {"debug_session", "directed memcached with direction packets", CheckDebugSession},
    {"pearson_ip", "PearsonHashIp ready/enable handshake", CheckPearsonIp},
    {"fault_injection", "NAT + memcached under an armed fault plan", CheckFaultInjection},
};

}  // namespace

int main(int argc, char** argv) {
  std::string dot_target;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("designs:\n");
      for (const Scenario& s : kScenarios) {
        std::printf("  %-16s %s\n", s.name, s.description);
      }
      std::printf("checks:  (static = emu_lint pass, dynamic = this binary)\n");
      for (const CheckInfo& info : CheckRegistry()) {
        const char* passes = info.static_pass && info.dynamic_pass ? "static+dynamic"
                             : info.static_pass                    ? "static"
                                                                   : "dynamic";
        std::printf("  %-18s %-15s %s\n", info.name, passes, info.description);
      }
      return kLintExitClean;
    }
    if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_target = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      g_fault_plan_text = argv[++i];
      continue;
    }
    std::fprintf(stderr,
                 "usage: emu_check [--list] [--dot <design>] [--faults \"<plan>\"]\n");
    return kLintExitUsage;
  }

  std::printf("== emu-check: design-rule analysis over %zu designs ==\n\n",
              std::size(kScenarios));
  std::vector<Finding> all;
  for (const Scenario& s : kScenarios) {
    ScenarioResult result = s.run(dot_target == s.name);
    std::printf("%-16s %s\n", s.name, result.summary.c_str());
    if (result.usage_error) {
      std::fprintf(stderr, "emu-check: %s\n", result.summary.c_str());
      return kLintExitUsage;
    }
    all.insert(all.end(), std::make_move_iterator(result.findings.begin()),
               std::make_move_iterator(result.findings.end()));
  }
  if (!all.empty()) {
    std::printf("\n");
    FormatFindingsText(std::cout, all);
  }
  const usize errors = CountErrors(all);
  if (errors != 0) {
    std::printf("\nemu-check: FAILED with %zu error finding(s), %zu total\n", errors,
                all.size());
  } else if (!all.empty()) {
    std::printf("\nemu-check: %zu warning finding(s), no errors\n", all.size());
  } else {
    std::printf("\nemu-check: all designs clean\n");
  }
  return LintExitCode(all);
}

#else  // !EMU_ANALYSIS

int main() {
  std::fprintf(stderr,
               "emu_check: built with -DEMU_ANALYSIS=OFF; the kernel has no "
               "analysis hooks.\nReconfigure with -DEMU_ANALYSIS=ON (the "
               "default) to run the checker.\n");
  return emu::kLintExitUsage;
}

#endif  // EMU_ANALYSIS
