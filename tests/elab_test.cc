// Static elaboration suite (emu-lint).
//
// Every check in the static pass gets a deliberately-broken micro-design and
// a minimally-different clean twin, so each finding is pinned to the exact
// property it claims to detect. The shipped designs (switch, NAT, memcached)
// must elaborate with no finding at all and run bit-exact with and without
// the pass: that is the proof they declare race-free IO in the registration
// order the kernel steps them in.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/elab/elab_graph.h"
#include "src/analysis/finding.h"
#include "src/common/fnv.h"
#include "src/core/targets.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/hdl/fifo.h"
#include "src/hdl/process.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/net/udp.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/parallel_runner.h"

namespace emu {
namespace {

// The static pass never resumes a process; an idle body keeps the designs
// honest (every declaration belongs to a real registered process).
HwProcess Idle() {
  for (;;) {
    co_await Pause();
  }
}

usize CountCheck(const std::vector<Finding>& findings, const char* check) {
  usize count = 0;
  for (const Finding& f : findings) {
    count += f.check == check;
  }
  return count;
}

// --- Catalog: construction-time registration ---------------------------------

TEST(ElabCatalog, ElementsSelfRegister) {
  Simulator sim;
  Reg<int> reg(sim, "my_reg", 0);
  Wire<int> wire(sim, "my_wire", 0);
  SyncFifo<int> fifo(sim, "my_fifo", 8, 32);

  const auto graph = elab::ElabGraph::FromSimulator(sim, "catalog");
  ASSERT_EQ(graph.nodes().size(), 3u);
  EXPECT_EQ(graph.nodes()[0].kind, elab::NodeKind::kReg);
  EXPECT_EQ(graph.nodes()[0].name, "my_reg");
  EXPECT_EQ(graph.nodes()[1].kind, elab::NodeKind::kWire);
  EXPECT_EQ(graph.nodes()[2].kind, elab::NodeKind::kFifo);
  EXPECT_EQ(graph.nodes()[2].depth, 8u);
  EXPECT_FALSE(graph.nodes()[2].external);
}

TEST(ElabCatalog, DeclarationsResolveToNodes) {
  Simulator sim;
  Wire<int> wire(sim, "w", 0);
  SyncFifo<int> fifo(sim, "f", 4, 32);
  const usize p = sim.AddProcess(Idle(), "worker");
  elab::IoDecl(sim.catalog(), p).Reads(&wire).Pushes(&fifo);

  const auto graph = elab::ElabGraph::FromSimulator(sim, "decl");
  ASSERT_EQ(graph.processes().size(), 1u);
  EXPECT_TRUE(graph.processes()[0].declared);
  EXPECT_TRUE(graph.fully_declared());
  ASSERT_EQ(graph.processes()[0].reads.size(), 1u);
  EXPECT_EQ(graph.nodes()[graph.processes()[0].reads[0]].name, "w");
  ASSERT_EQ(graph.processes()[0].pushes.size(), 1u);
  EXPECT_EQ(graph.nodes()[graph.processes()[0].pushes[0]].name, "f");
}

TEST(ElabCatalog, UndeclaredReferenceCreatesImplicitNode) {
  Simulator sim;
  const usize p = sim.AddProcess(Idle(), "worker");
  elab::IoDecl(sim.catalog(), p).Reads(std::string("phantom"));

  const auto graph = elab::ElabGraph::FromSimulator(sim, "implicit");
  ASSERT_EQ(graph.nodes().size(), 1u);
  EXPECT_TRUE(graph.nodes()[0].implicit);
  EXPECT_EQ(graph.nodes()[0].name, "phantom");
}

// --- COMBLOOP: static Tarjan over declared wire dataflow ---------------------

TEST(ElabCheck, CombLoopDetected) {
  Simulator sim;
  Wire<int> a(sim, "wire_a", 0);
  Wire<int> b(sim, "wire_b", 0);
  const usize p0 = sim.AddProcess(Idle(), "a_to_b");
  const usize p1 = sim.AddProcess(Idle(), "b_to_a");
  elab::IoDecl(sim.catalog(), p0).Reads(&a).Writes(&b);
  elab::IoDecl(sim.catalog(), p1).Reads(&b).Writes(&a);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "loop").CheckCombLoops(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "COMBLOOP");
  EXPECT_NE(findings[0].message.find("wire_a"), std::string::npos);
  EXPECT_NE(findings[0].message.find("wire_b"), std::string::npos);
}

// Satellite: a process reading its own written wire is a blocking
// assignment, not a cycle — the self-edge must not be reported.
TEST(ElabCheck, SelfLoopIsNotACombLoop) {
  Simulator sim;
  Wire<int> w(sim, "self_wire", 0);
  const usize p = sim.AddProcess(Idle(), "self");
  elab::IoDecl(sim.catalog(), p).Reads(&w).Writes(&w);

  std::vector<Finding> findings;
  const auto graph = elab::ElabGraph::FromSimulator(sim, "self");
  graph.CheckCombLoops(findings);
  EXPECT_TRUE(findings.empty());
}

// Satellite: two independent cycles are two findings, not one merged blob.
TEST(ElabCheck, DisjointCyclesReportSeparately) {
  Simulator sim;
  Wire<int> a(sim, "ring1_a", 0), b(sim, "ring1_b", 0);
  Wire<int> c(sim, "ring2_c", 0), d(sim, "ring2_d", 0);
  const usize p0 = sim.AddProcess(Idle(), "r1_fwd");
  const usize p1 = sim.AddProcess(Idle(), "r1_back");
  const usize p2 = sim.AddProcess(Idle(), "r2_fwd");
  const usize p3 = sim.AddProcess(Idle(), "r2_back");
  elab::IoDecl(sim.catalog(), p0).Reads(&a).Writes(&b);
  elab::IoDecl(sim.catalog(), p1).Reads(&b).Writes(&a);
  elab::IoDecl(sim.catalog(), p2).Reads(&c).Writes(&d);
  elab::IoDecl(sim.catalog(), p3).Reads(&d).Writes(&c);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "rings").CheckCombLoops(findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].subject, findings[1].subject);
  EXPECT_NE(findings[0].message.find("ring1"), std::string::npos);
  EXPECT_NE(findings[1].message.find("ring2"), std::string::npos);
}

// Satellite: a cycle broken by a register is the canonical *correct* feedback
// shape (accumulators, FSMs) — Reg edges are clocked, not combinational.
TEST(ElabCheck, RegisterBreaksCombLoop) {
  Simulator sim;
  Wire<int> w(sim, "forward_wire", 0);
  Reg<int> r(sim, "state_reg", 0);
  const usize p0 = sim.AddProcess(Idle(), "producer");
  const usize p1 = sim.AddProcess(Idle(), "consumer");
  elab::IoDecl(sim.catalog(), p0).Reads(&r).Writes(&w);  // feedback via reg
  elab::IoDecl(sim.catalog(), p1).Reads(&w).Writes(&r);

  std::vector<Finding> findings;
  const auto graph = elab::ElabGraph::FromSimulator(sim, "feedback");
  graph.CheckCombLoops(findings);
  EXPECT_TRUE(findings.empty());
}

// --- MULTIDRIVEN / COMBRACE: declared-edge checks -----------------------------

TEST(ElabCheck, MultiDrivenRegister) {
  Simulator sim;
  Reg<int> shared(sim, "shared_reg", 0);
  const usize p0 = sim.AddProcess(Idle(), "driver_a");
  const usize p1 = sim.AddProcess(Idle(), "driver_b");
  elab::IoDecl(sim.catalog(), p0).Writes(&shared);
  elab::IoDecl(sim.catalog(), p1).Writes(&shared);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "md").CheckMultiDriven(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "MULTIDRIVEN");
  EXPECT_EQ(findings[0].subject, "shared_reg");
}

TEST(ElabCheck, CombRaceWhenReaderRegisteredFirst) {
  Simulator sim;
  Wire<int> w(sim, "raced_wire", 0);
  const usize reader = sim.AddProcess(Idle(), "early_reader");
  const usize writer = sim.AddProcess(Idle(), "late_writer");
  elab::IoDecl(sim.catalog(), reader).Reads(&w);
  elab::IoDecl(sim.catalog(), writer).Writes(&w);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "race").CheckCombRaces(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "COMBRACE");
  EXPECT_EQ(findings[0].subject, "raced_wire");

  // Writer-before-reader is the valid order: no finding.
  Simulator clean;
  Wire<int> cw(clean, "ordered_wire", 0);
  const usize w2 = clean.AddProcess(Idle(), "writer");
  const usize r2 = clean.AddProcess(Idle(), "reader");
  elab::IoDecl(clean.catalog(), w2).Writes(&cw);
  elab::IoDecl(clean.catalog(), r2).Reads(&cw);
  std::vector<Finding> none;
  elab::ElabGraph::FromSimulator(clean, "ordered").CheckCombRaces(none);
  EXPECT_TRUE(none.empty());
}

// --- DEADSIGNAL / DEADPROCESS / FIFODEADLOCK: completeness checks -------------

TEST(ElabCheck, DeadSignalOnFullyDeclaredDesign) {
  Simulator sim;
  SyncFifo<int> orphan(sim, "orphan_fifo", 4, 32);
  SyncFifo<int> live(sim, "live_fifo", 4, 32);
  const usize p0 = sim.AddProcess(Idle(), "producer");
  const usize p1 = sim.AddProcess(Idle(), "consumer");
  elab::IoDecl(sim.catalog(), p0).Pushes(&orphan).Pushes(&live);
  elab::IoDecl(sim.catalog(), p1).Pops(&live);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "dead").CheckDeadSignals(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "DEADSIGNAL");
  EXPECT_EQ(findings[0].subject, "orphan_fifo");
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
}

TEST(ElabCheck, DeadSignalGatedOnPartialDeclaration) {
  Simulator sim;
  SyncFifo<int> orphan(sim, "orphan_fifo", 4, 32);
  const usize p0 = sim.AddProcess(Idle(), "declared");
  sim.AddProcess(Idle(), "mystery");  // undeclared: could touch anything
  elab::IoDecl(sim.catalog(), p0).Pushes(&orphan);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "gated").CheckDeadSignals(findings);
  EXPECT_TRUE(findings.empty());
}

TEST(ElabCheck, ExternalMarkSilencesDeadSignal) {
  Simulator sim;
  SyncFifo<int> rx(sim, "host_rx", 4, 32);
  sim.catalog().MarkExternal(&rx);  // testbench pushes it from outside
  const usize p = sim.AddProcess(Idle(), "service");
  elab::IoDecl(sim.catalog(), p).Pops(&rx);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "ext").CheckDeadSignals(findings);
  EXPECT_TRUE(findings.empty());
}

TEST(ElabCheck, DeadProcessWithUnproducedInputs) {
  Simulator sim;
  SyncFifo<int> silent(sim, "silent_fifo", 4, 32);
  const usize p = sim.AddProcess(Idle(), "starved");
  elab::IoDecl(sim.catalog(), p).Pops(&silent);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "dp").CheckDeadProcesses(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "DEADPROCESS");
  EXPECT_EQ(findings[0].subject, "starved");

  // Marking the FIFO external (fed by the testbench) clears the finding.
  sim.catalog().MarkExternal(&silent);
  std::vector<Finding> after;
  elab::ElabGraph::FromSimulator(sim, "dp").CheckDeadProcesses(after);
  EXPECT_TRUE(after.empty());
}

TEST(ElabCheck, FifoDeadlockRingWithNoDrain) {
  Simulator sim;
  SyncFifo<int> ab(sim, "ring_ab", 2, 32);
  SyncFifo<int> ba(sim, "ring_ba", 2, 32);
  const usize p0 = sim.AddProcess(Idle(), "stage_a");
  const usize p1 = sim.AddProcess(Idle(), "stage_b");
  elab::IoDecl(sim.catalog(), p0).Pops(&ba).Pushes(&ab);
  elab::IoDecl(sim.catalog(), p1).Pops(&ab).Pushes(&ba);

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "ring").CheckFifoDeadlocks(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "FIFODEADLOCK");
  EXPECT_EQ(findings[0].severity, Severity::kError);
}

TEST(ElabCheck, FifoRingWithDrainIsClean) {
  Simulator sim;
  SyncFifo<int> ab(sim, "ring_ab", 2, 32);
  SyncFifo<int> ba(sim, "ring_ba", 2, 32);
  const usize p0 = sim.AddProcess(Idle(), "stage_a");
  const usize p1 = sim.AddProcess(Idle(), "stage_b");
  const usize p2 = sim.AddProcess(Idle(), "drain");
  elab::IoDecl(sim.catalog(), p0).Pops(&ba).Pushes(&ab);
  elab::IoDecl(sim.catalog(), p1).Pops(&ab).Pushes(&ba);
  elab::IoDecl(sim.catalog(), p2).Pops(&ab);  // pops the ring, pushes nothing

  std::vector<Finding> findings;
  elab::ElabGraph::FromSimulator(sim, "drained").CheckFifoDeadlocks(findings);
  EXPECT_TRUE(findings.empty());
}

// --- SHARDCUT / FAULTTARGET: cross-layer checks -------------------------------

TEST(ElabCheck, ShardCutFlagsZeroLookahead) {
  const std::vector<ShardCut> cuts = {{0, 1, 7, 0}, {1, 0, 8, 500'000}};
  std::vector<Finding> findings;
  elab::CheckShardCuts(cuts, "sharded", findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "SHARDCUT");
  EXPECT_NE(findings[0].subject.find("0 -> 1"), std::string::npos);
}

TEST(ElabCheck, FaultTargetFlagsUnmatchedPattern) {
  FaultRegistry registry(3);
  registry.Register("nat.flows", FaultClass::kTableExhaustion);
  const auto plan = ParseFaultPlan("nat.* bernoulli 0.5\ndns.cache oneshot 10");
  ASSERT_TRUE(plan.ok());

  std::vector<Finding> findings;
  elab::CheckFaultPlanTargets(*plan, {&registry}, "faults", findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "FAULTTARGET");
  EXPECT_EQ(findings[0].subject, "dns.cache");
}

// --- Shipped designs: registration order is the schedule, bit-exact ----------
//
// The kernel adopts one schedule, registration order. A clean elaboration
// (no COMBRACE: no wire reader registered ahead of its writer; no COMBLOOP)
// is what makes that order the one every same-cycle reader relies on. Each
// workload runs once with the pass taken before the first edge and once
// without; the egress must agree bit for bit.

struct EgressDigest {
  Cycle final_now = 0;
  usize frames = 0;
  u64 digest = fnv::kOffset;

  void Capture(FpgaTarget& target) {
    final_now = target.sim().now();
    for (const EgressFrame& entry : target.TakeEgress()) {
      ++frames;
      digest = fnv::Bytes(fnv::Mix(digest, entry.port), entry.frame.bytes());
    }
  }

  bool operator==(const EgressDigest&) const = default;
};

// Runs the whole static suite on `design` when `elaborate` is set; a shipped
// design must come back with no finding at all.
void MaybeElaborate(const Simulator& sim, const std::string& design, bool elaborate) {
  if (!elaborate) {
    return;
  }
  const std::vector<Finding> findings = elab::ElabGraph::FromSimulator(sim, design).Check();
  EXPECT_TRUE(findings.empty()) << design << ": " << findings[0].ToString();
}

EgressDigest RunSwitchWorkload(bool elaborate) {
  LearningSwitch service;
  FpgaTarget target(service);
  MaybeElaborate(target.sim(), "switch", elaborate);
  const MacAddress a = MacAddress::FromU48(0x02'00'00'00'00'0a);
  const MacAddress b = MacAddress::FromU48(0x02'00'00'00'00'0b);
  for (usize i = 0; i < 6; ++i) {
    target.Inject(i % 2 ? 2 : 0,
                  MakeUdpPacket({i % 2 ? a : b, i % 2 ? b : a, Ipv4Address(10, 0, 0, 1),
                                 Ipv4Address(10, 0, 0, 2), 4000, 9},
                                std::vector<u8>{static_cast<u8>(i)}));
    target.Run(30'000);
  }
  EgressDigest digest;
  digest.Capture(target);
  return digest;
}

TEST(StaticSchedule, SwitchBitExactUnderAdoptedSchedule) {
  const EgressDigest elaborated = RunSwitchWorkload(true);
  const EgressDigest registration = RunSwitchWorkload(false);
  ASSERT_GT(elaborated.frames, 0u);
  EXPECT_EQ(elaborated, registration);
}

EgressDigest RunNatWorkload(bool elaborate) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  MaybeElaborate(target.sim(), "nat", elaborate);
  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 12; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 4)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(5000 + i), 53},
        std::vector<u8>{'q', static_cast<u8>(i)});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    target.Run(i % 3 == 0 ? 25'000 : 700);
  }
  target.Run(80'000);
  EgressDigest digest;
  digest.Capture(target);
  return digest;
}

TEST(StaticSchedule, NatBitExactUnderAdoptedSchedule) {
  const EgressDigest elaborated = RunNatWorkload(true);
  const EgressDigest registration = RunNatWorkload(false);
  ASSERT_GT(elaborated.frames, 0u);
  EXPECT_EQ(elaborated, registration);
}

EgressDigest RunMemcachedWorkload(bool elaborate) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  MaybeElaborate(target.sim(), "memcached", elaborate);
  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 24;
  MemaslapLoadgen loadgen(workload);
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    target.Inject(0, loadgen.PrewarmFrame(i));
    target.Run(2'500);
  }
  for (usize i = 0; i < 32; ++i) {
    target.Inject(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    target.Run(i % 5 == 0 ? 15'000 : 400);
  }
  target.Run(80'000);
  EgressDigest digest;
  digest.Capture(target);
  return digest;
}

TEST(StaticSchedule, MemcachedBitExactUnderAdoptedSchedule) {
  const EgressDigest elaborated = RunMemcachedWorkload(true);
  const EgressDigest registration = RunMemcachedWorkload(false);
  ASSERT_GT(elaborated.frames, 0u);
  EXPECT_EQ(elaborated, registration);
}

// --- Pre-flight: the whole suite on a broken design, before any edge ---------

// The two-process wire ring yields COMBLOOP plus the backward edge's COMBRACE
// on 'a'.
std::vector<Finding> PreFlightWireRing() {
  Simulator sim;
  Wire<int> a(sim, "a", 0);
  Wire<int> b(sim, "b", 0);
  const usize p0 = sim.AddProcess(Idle(), "fwd");
  const usize p1 = sim.AddProcess(Idle(), "back");
  elab::IoDecl(sim.catalog(), p0).Reads(&a).Writes(&b);
  elab::IoDecl(sim.catalog(), p1).Reads(&b).Writes(&a);
  return elab::ElabGraph::FromSimulator(sim, "ring").Check();
}

TEST(Elaboration, PreFlightReportsBrokenDesign) {
  const std::vector<Finding> findings = PreFlightWireRing();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(CountCheck(findings, "COMBLOOP"), 1u);
  EXPECT_EQ(CountCheck(findings, "COMBRACE"), 1u);
  EXPECT_EQ(findings[1].subject, "a");
}

TEST(Elaboration, SuppressionsApplyDuringPreFlight) {
  usize suppressed = 0;
  const auto kept = ApplySuppressions(PreFlightWireRing(),
                                      ParseSuppressions("COMBLOOP, COMBRACE:a"), &suppressed);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(suppressed, 2u);
}

// --- Shared finding layer: suppressions, formatting, exit codes ----------------

TEST(FindingLayer, SuppressionSyntax) {
  const auto list = ParseSuppressions(
      "COMBLOOP, DEADSIGNAL:dbg_*  # tooling signals\nFAULTTARGET:nat.flows");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].check, "COMBLOOP");
  EXPECT_TRUE(list[0].subject_pattern.empty());
  EXPECT_EQ(list[1].check, "DEADSIGNAL");
  EXPECT_EQ(list[1].subject_pattern, "dbg_*");
  EXPECT_EQ(list[2].subject_pattern, "nat.flows");

  const Finding dbg{"DEADSIGNAL", Severity::kWarning, "d", "dbg_probe", "m"};
  const Finding live{"DEADSIGNAL", Severity::kWarning, "d", "core_fifo", "m"};
  EXPECT_TRUE(SuppressionMatches(list[1], dbg));
  EXPECT_FALSE(SuppressionMatches(list[1], live));

  usize suppressed = 0;
  const auto kept = ApplySuppressions({dbg, live}, list, &suppressed);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].subject, "core_fifo");
  EXPECT_EQ(suppressed, 1u);
}

TEST(FindingLayer, ExitCodeContract) {
  EXPECT_EQ(LintExitCode({}), kLintExitClean);
  const Finding warning{"DEADSIGNAL", Severity::kWarning, "d", "s", "m"};
  const Finding error{"COMBLOOP", Severity::kError, "d", "s", "m"};
  EXPECT_EQ(LintExitCode({warning}), kLintExitClean);  // warnings never fail
  EXPECT_EQ(LintExitCode({warning, error}), kLintExitFindings);
  EXPECT_EQ(CountErrors({warning, error}), 1u);
  // The three-way contract itself.
  EXPECT_EQ(kLintExitClean, 0);
  EXPECT_EQ(kLintExitFindings, 1);
  EXPECT_EQ(kLintExitUsage, 2);
}

TEST(FindingLayer, JsonFormatterEscapes) {
  const Finding f{"COMBLOOP", Severity::kError, "d", "a\"b", "line1\nline2\ttab"};
  std::ostringstream out;
  FormatFindingsJson(out, {f});
  const std::string json = out.str();
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(FindingLayer, CheckRegistryCoversBothPasses) {
  usize static_checks = 0, dynamic_checks = 0;
  for (const CheckInfo& info : CheckRegistry()) {
    static_checks += info.static_pass;
    dynamic_checks += info.dynamic_pass;
    EXPECT_TRUE(info.static_pass || info.dynamic_pass) << info.name;
  }
  EXPECT_EQ(static_checks, 8u);   // MULTIDRIVEN COMBRACE COMBLOOP + 5 static-only
  EXPECT_EQ(dynamic_checks, 7u);  // the original dynamic taxonomy
}

// --- FAULTTARGET over topology-scoped events (emu-gossip) ---------------------

namespace topo_lint {

const std::vector<std::string> kHosts = {"h0", "h1", "h2", "h3"};

std::vector<Finding> Lint(const std::string& plan_text) {
  const auto plan = ParseFaultPlan(plan_text);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<Finding> findings;
  elab::CheckTopoFaults(*plan, kHosts, "gossip", findings);
  return findings;
}

TEST(TopoFaultLint, CleanCampaignHasNoFindings) {
  const auto findings = Lint(
      "crash host=h1 at=5ms; restart host=h1 at=30ms; "
      "partition {h0}|{h2,h3} from=40ms to=50ms");
  EXPECT_TRUE(findings.empty()) << findings[0].ToString();
}

TEST(TopoFaultLint, UnknownHostIsAnError) {
  const auto findings = Lint("crash host=h9 at=5ms");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "FAULTTARGET");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].subject, "h9");
  EXPECT_NE(findings[0].message.find("plan line 1"), std::string::npos)
      << findings[0].message;
}

TEST(TopoFaultLint, UnknownHostInPartitionGroupIsAnError) {
  const auto findings = Lint("partition {h0,hx}|{h1} from=1ms to=2ms");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].subject, "hx");
}

TEST(TopoFaultLint, RestartWithoutCrashWarnsAsPowerCycle) {
  const auto findings = Lint("restart host=h2 at=10ms");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].subject, "h2");
  EXPECT_NE(findings[0].message.find("power-cycle"), std::string::npos)
      << findings[0].message;
}

TEST(TopoFaultLint, DoubleCrashWithoutRestartWarns) {
  // Plan order is not time order — the check must sort by event time.
  const auto findings = Lint("crash host=h1 at=20ms; crash host=h1 at=5ms");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("no-op"), std::string::npos) << findings[0].message;
  // With a restart between the crashes the sequence is legal.
  EXPECT_TRUE(Lint("crash host=h1 at=5ms; restart host=h1 at=10ms; "
                   "crash host=h1 at=20ms")
                  .empty());
}

TEST(TopoFaultLint, CrashInsidePartitionWindowNamingThatHostWarns) {
  const auto findings =
      Lint("partition {h0}|{h1} from=5ms to=15ms; crash host=h0 at=10ms");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].subject, "h0");
  EXPECT_NE(findings[0].message.find("conflates"), std::string::npos)
      << findings[0].message;
  // A crash of a host the window does NOT name is fine.
  EXPECT_TRUE(Lint("partition {h0}|{h1} from=5ms to=15ms; crash host=h2 at=10ms").empty());
  // A crash outside the window is fine too.
  EXPECT_TRUE(Lint("partition {h0}|{h1} from=5ms to=15ms; crash host=h0 at=20ms").empty());
}

}  // namespace topo_lint

}  // namespace
}  // namespace emu
