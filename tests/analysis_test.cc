// emu-check analysis layer: one deliberately-buggy micro-design per hazard
// class, each asserting the monitor reports it — plus clean designs asserting
// it stays silent, registry/metadata checks, and the observed graph's
// COMBLOOP finding and DOT dump.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/elab/elab_graph.h"
#include "src/analysis/finding.h"
#include "src/analysis/hazard.h"
#include "src/analysis/hazard_monitor.h"
#include "src/hdl/fifo.h"
#include "src/hdl/process.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/ip/pearson_hash.h"

namespace emu {
namespace {

// --- Registry metadata (independent of whether hooks are compiled) ---

TEST(AnalysisRegistry, HasOneEntryPerHazardKind) {
  const auto& registry = CheckRegistry();
  ASSERT_EQ(registry.size(), kHazardKindCount);
  for (usize i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(static_cast<usize>(registry[i].kind), i);
    EXPECT_STRNE(registry[i].name, "");
    EXPECT_STRNE(registry[i].description, "");
    EXPECT_STREQ(registry[i].name, HazardKindName(registry[i].kind));
  }
}

TEST(AnalysisRegistry, ReportFormatting) {
  HazardReport report;
  report.kind = HazardKind::kMultiDriver;
  report.severity = Severity::kError;
  report.cycle = 42;
  report.signal = "shared_reg";
  report.process = "writer_b";
  report.message = "boom";
  const std::string text = report.ToString();
  EXPECT_NE(text.find("MULTIDRIVEN"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("shared_reg"), std::string::npos);
  EXPECT_NE(text.find("writer_b"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(AnalysisRegistry, ChecksToggle) {
  Simulator sim;
  HazardMonitor monitor(sim);
  EXPECT_TRUE(monitor.CheckEnabled(HazardKind::kMultiDriver));
  monitor.EnableCheck(HazardKind::kMultiDriver, false);
  EXPECT_FALSE(monitor.CheckEnabled(HazardKind::kMultiDriver));
  EXPECT_TRUE(monitor.CheckEnabled(HazardKind::kCombRace));
}

TEST(AnalysisMonitor, AttachDetach) {
  Simulator sim;
  EXPECT_EQ(sim.monitor(), nullptr);
  {
    HazardMonitor monitor(sim);
    EXPECT_EQ(sim.monitor(), &monitor);
  }
  EXPECT_EQ(sim.monitor(), nullptr);
}

#ifndef EMU_ANALYSIS

TEST(AnalysisHooks, SkippedWithoutAnalysisBuild) {
  GTEST_SKIP() << "library built with EMU_ANALYSIS=OFF; kernel hooks compiled out";
}

#else  // EMU_ANALYSIS

// --- Hazard class 1: multi-driven register ---

HwProcess WriteForever(Reg<int>& reg, int value) {
  for (;;) {
    reg.Write(value);
    co_await Pause();
  }
}

TEST(AnalysisHooks, DetectsMultiDriver) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> shared(sim, "shared_reg", 0);
  sim.AddProcess(WriteForever(shared, 1), "writer_a");
  sim.AddProcess(WriteForever(shared, 2), "writer_b");
  sim.Run(4);
  EXPECT_EQ(monitor.CountOf(HazardKind::kMultiDriver), 1u);  // deduplicated
  ASSERT_TRUE(monitor.HasFindings());
  EXPECT_EQ(monitor.reports()[0].signal, "shared_reg");
}

TEST(AnalysisHooks, SingleDriverIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> owned(sim, "owned_reg", 0);
  sim.AddProcess(WriteForever(owned, 1), "only_writer");
  sim.Run(4);
  EXPECT_FALSE(monitor.HasFindings());
}

TEST(AnalysisHooks, TestbenchWriteDoesNotCountAsDriver) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> poked(sim, "poked_reg", 0);
  sim.AddProcess(WriteForever(poked, 1), "hw_writer");
  for (int i = 0; i < 4; ++i) {
    poked.Write(99);  // harness poke between edges, like every testbench does
    sim.Step();
  }
  EXPECT_EQ(monitor.CountOf(HazardKind::kMultiDriver), 0u);
}

TEST(AnalysisHooks, DisabledCheckStaysSilent) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.EnableCheck(HazardKind::kMultiDriver, false);
  Reg<int> shared(sim, "shared_reg", 0);
  sim.AddProcess(WriteForever(shared, 1), "writer_a");
  sim.AddProcess(WriteForever(shared, 2), "writer_b");
  sim.Run(4);
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 2: combinational (wire registration-order) race ---

HwProcess ReadWireForever(Wire<int>& wire, int& sink) {
  for (;;) {
    sink = wire.Read();
    co_await Pause();
  }
}

HwProcess WriteWireForever(Wire<int>& wire) {
  for (int i = 0;; ++i) {
    wire.Write(i);
    co_await Pause();
  }
}

TEST(AnalysisHooks, DetectsWireOrderRace) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Wire<int> wire(sim, "race_wire", 0);
  int sink = 0;
  sim.AddProcess(ReadWireForever(wire, sink), "early_reader");  // registered first
  sim.AddProcess(WriteWireForever(wire), "late_writer");        // writes after the read
  sim.Run(4);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombRace), 1u);
  bool found = false;
  for (const auto& report : monitor.reports()) {
    if (report.kind == HazardKind::kCombRace) {
      EXPECT_EQ(report.signal, "race_wire");
      EXPECT_EQ(report.process, "early_reader");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalysisHooks, WriterBeforeReaderIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Wire<int> wire(sim, "ok_wire", 0);
  int sink = 0;
  sim.AddProcess(WriteWireForever(wire), "early_writer");
  sim.AddProcess(ReadWireForever(wire, sink), "late_reader");
  sim.Run(4);
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 3: read of an uninitialized (no-default) element ---

HwProcess ReadRegOnce(Reg<int>& reg, int& sink) {
  sink = reg.Read();
  co_await Pause();
}

TEST(AnalysisHooks, DetectsUninitRead) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> undriven(sim, "undriven_reg", no_init);
  int sink = 0;
  sim.AddProcess(ReadRegOnce(undriven, sink), "reader");
  sim.Run(1);
  EXPECT_EQ(monitor.CountOf(HazardKind::kUninitRead), 1u);
}

TEST(AnalysisHooks, InitializedRegIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> driven(sim, "driven_reg", 7);  // has a declared reset value
  int sink = 0;
  sim.AddProcess(ReadRegOnce(driven, sink), "reader");
  sim.Run(1);
  EXPECT_FALSE(monitor.HasFindings());
}

TEST(AnalysisHooks, NoInitRegCleanOnceWritten) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> reg(sim, "written_first", no_init);
  reg.Write(5);
  int sink = 0;
  sim.AddProcess(ReadRegOnce(reg, sink), "reader");
  sim.Run(1);
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 4: lost backpressure (unchecked dropped push) ---

HwProcess BlindPusher(SyncFifo<int>& fifo) {
  for (int i = 0;; ++i) {
    fifo.Push(i);  // never checks CanPush, never looks at the result
    co_await Pause();
  }
}

HwProcess PolitePusher(SyncFifo<int>& fifo) {
  for (int i = 0;; ++i) {
    if (fifo.CanPush()) {
      fifo.Push(i);
    }
    co_await Pause();
  }
}

TEST(AnalysisHooks, DetectsLostBackpressure) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "tiny_fifo", 1, 32);  // fills after one push
  sim.AddProcess(BlindPusher(fifo), "blind_pusher");
  sim.Run(4);  // second push hits a full FIFO with no CanPush that cycle
  EXPECT_EQ(monitor.CountOf(HazardKind::kLostBackpressure), 1u);
}

TEST(AnalysisHooks, CheckedDropIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "tiny_fifo", 1, 32);
  sim.AddProcess(PolitePusher(fifo), "polite_pusher");
  sim.Run(4);  // FIFO is full from cycle 1 on, but every drop is observed
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 5: runaway process (Pause starvation / livelock) ---

HwProcess HotLoop(Reg<int>& reg, int writes_per_resume) {
  for (;;) {
    for (int i = 0; i < writes_per_resume; ++i) {
      reg.Write(i);
    }
    co_await Pause();
  }
}

TEST(AnalysisHooks, DetectsRunawayProcess) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.set_runaway_budget(64);
  Reg<int> reg(sim, "spin_reg", 0);
  sim.AddProcess(HotLoop(reg, 1000), "spinner");
  sim.Run(2);
  EXPECT_EQ(monitor.CountOf(HazardKind::kRunawayProcess), 1u);
  bool found = false;
  for (const auto& report : monitor.reports()) {
    if (report.kind == HazardKind::kRunawayProcess) {
      EXPECT_EQ(report.process, "spinner");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalysisHooks, BudgetedProcessIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.set_runaway_budget(64);
  Reg<int> reg(sim, "calm_reg", 0);
  sim.AddProcess(HotLoop(reg, 8), "calm");
  sim.Run(16);
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 6: post-mortem Step() (lifetime rule violation) ---

TEST(AnalysisHooks, DetectsPostMortemStep) {
  Simulator sim;
  HazardMonitor monitor(sim);
  {
    Reg<int> doomed(sim, "doomed_reg", 0);
    sim.Step();
  }
  sim.Step();  // would be a use-after-free without the tombstone
  sim.Step();
  EXPECT_EQ(monitor.CountOf(HazardKind::kPostMortemStep), 1u);
}

TEST(AnalysisHooks, UnregisteredElementDeathIsClean) {
  Simulator sim;
  HazardMonitor monitor(sim);
  {
    Reg<int> transient(sim, "transient_reg", 0);
    sim.Step();
    sim.UnregisterClocked(&transient);  // dynamic reconfiguration path
  }
  sim.Step();
  EXPECT_FALSE(monitor.HasFindings());
}

// --- Hazard class 7: combinational dependency cycle (observed graph) ---

HwProcess RelayWire(Wire<int>& in, Wire<int>& out) {
  for (;;) {
    out.Write(in.Read() + 1);
    co_await Pause();
  }
}

TEST(AnalysisHooks, DetectsCombinationalLoop) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.EnableCheck(HazardKind::kCombRace, false);  // isolate the graph check
  Wire<int> a(sim, "wire_a", 0);
  Wire<int> b(sim, "wire_b", 0);
  sim.AddProcess(RelayWire(a, b), "a_to_b");
  sim.AddProcess(RelayWire(b, a), "b_to_a");
  sim.Run(4);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 1u);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombLoop), 1u);
  // Idempotent: re-analysis does not duplicate the finding.
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 0u);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombLoop), 1u);
}

// The monitor lowers what it observed into the ElabGraph emu-lint builds from
// declarations, so a loop yields the same finding from both passes and one
// COMBLOOP suppression covers both tools.
TEST(AnalysisHooks, ObservedAndDeclaredCombLoopAgree) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Wire<int> a(sim, "wire_a", 0);
  Wire<int> b(sim, "wire_b", 0);
  const usize p0 = sim.AddProcess(RelayWire(a, b), "a_to_b");
  const usize p1 = sim.AddProcess(RelayWire(b, a), "b_to_a");
  elab::IoDecl(sim.catalog(), p0).Reads(&a).Writes(&b);
  elab::IoDecl(sim.catalog(), p1).Reads(&b).Writes(&a);
  sim.Run(4);

  std::vector<Finding> declared;
  elab::ElabGraph::FromSimulator(sim).CheckCombLoops(declared);
  ASSERT_EQ(declared.size(), 1u);
  ASSERT_EQ(monitor.AnalyzeCombinationalGraph(), 1u);
  const HazardReport* loop = nullptr;
  for (const HazardReport& report : monitor.reports()) {
    if (report.kind == HazardKind::kCombLoop) {
      loop = &report;
    }
  }
  ASSERT_NE(loop, nullptr);
  const Finding observed = FindingFromReport(*loop, "");
  EXPECT_EQ(observed.check, declared[0].check);
  EXPECT_EQ(observed.subject, declared[0].subject);
  EXPECT_EQ(observed.message, declared[0].message);
}

TEST(AnalysisHooks, AcyclicWirePipelineHasNoLoop) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Wire<int> a(sim, "wire_a", 0);
  Wire<int> b(sim, "wire_b", 0);
  int sink = 0;
  sim.AddProcess(WriteWireForever(a), "source");
  sim.AddProcess(RelayWire(a, b), "relay");
  sim.AddProcess(ReadWireForever(b, sink), "sink");
  sim.Run(4);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 0u);
  EXPECT_FALSE(monitor.HasFindings());
}

// A process reading the wire it writes is a blocking assignment inside one
// process, not a dependency cycle: the SCC is a singleton and must not fire.
HwProcess SelfRelay(Wire<int>& w) {
  for (;;) {
    w.Write(w.Read() + 1);
    co_await Pause();
  }
}

TEST(AnalysisHooks, SelfLoopIsNotACombLoop) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.EnableCheck(HazardKind::kCombRace, false);
  Wire<int> w(sim, "self_wire", 0);
  sim.AddProcess(SelfRelay(w), "self");
  sim.Run(4);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 0u);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombLoop), 0u);
}

TEST(AnalysisHooks, DisjointCombCyclesReportSeparately) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.EnableCheck(HazardKind::kCombRace, false);
  Wire<int> a(sim, "ring1_a", 0), b(sim, "ring1_b", 0);
  Wire<int> c(sim, "ring2_c", 0), d(sim, "ring2_d", 0);
  sim.AddProcess(RelayWire(a, b), "r1_fwd");
  sim.AddProcess(RelayWire(b, a), "r1_back");
  sim.AddProcess(RelayWire(c, d), "r2_fwd");
  sim.AddProcess(RelayWire(d, c), "r2_back");
  sim.Run(4);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 2u);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombLoop), 2u);
}

// Feedback routed through a register is the canonical correct shape: the reg
// edge is clocked, so the comb graph stays acyclic.
HwProcess RegToWire(Reg<int>& r, Wire<int>& w) {
  for (;;) {
    w.Write(r.Read() + 1);
    co_await Pause();
  }
}

HwProcess WireToReg(Wire<int>& w, Reg<int>& r) {
  for (;;) {
    r.Write(w.Read());
    co_await Pause();
  }
}

TEST(AnalysisHooks, RegisterBreaksCombLoop) {
  Simulator sim;
  HazardMonitor monitor(sim);
  monitor.EnableCheck(HazardKind::kCombRace, false);
  Wire<int> w(sim, "forward_wire", 0);
  Reg<int> r(sim, "state_reg", 0);
  sim.AddProcess(RegToWire(r, w), "producer");
  sim.AddProcess(WireToReg(w, r), "consumer");
  sim.Run(4);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 0u);
  EXPECT_EQ(monitor.CountOf(HazardKind::kCombLoop), 0u);
}

// --- A fully clean multi-element design stays silent end to end ---

HwProcess CleanProducer(SyncFifo<int>& fifo) {
  for (int i = 0;; ++i) {
    if (fifo.CanPush()) {
      fifo.Push(i);
    }
    co_await Pause();
  }
}

HwProcess CleanConsumer(SyncFifo<int>& fifo, Reg<int>& total) {
  for (;;) {
    if (!fifo.Empty()) {
      total.Write(total.Read() + fifo.Pop());
    }
    co_await Pause();
  }
}

TEST(AnalysisHooks, CleanDesignReportsNothing) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "pipe", 4, 32);
  Reg<int> total(sim, "total", 0);
  sim.AddProcess(CleanProducer(fifo), "producer");
  sim.AddProcess(CleanConsumer(fifo, total), "consumer");
  sim.Run(100);
  EXPECT_EQ(monitor.AnalyzeCombinationalGraph(), 0u);
  EXPECT_FALSE(monitor.HasFindings());
  EXPECT_NE(monitor.Summary().find("clean"), std::string::npos);
  EXPECT_GT(total.Read(), 0);
}

// --- Dependency graph dump ---

TEST(AnalysisHooks, DotDumpNamesProcessesAndSignals) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "pipe", 4, 32);
  Reg<int> total(sim, "total", 0);
  sim.AddProcess(CleanProducer(fifo), "producer");
  sim.AddProcess(CleanConsumer(fifo, total), "consumer");
  sim.Run(10);
  std::ostringstream os;
  monitor.ObservedGraph().DumpDot(os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("producer"), std::string::npos);
  EXPECT_NE(dot.find("consumer"), std::string::npos);
  EXPECT_NE(dot.find("pipe"), std::string::npos);
  EXPECT_NE(dot.find("total"), std::string::npos);
}

TEST(AnalysisHooks, SummaryCountsFindings) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<int> shared(sim, "shared_reg", 0);
  sim.AddProcess(WriteForever(shared, 1), "writer_a");
  sim.AddProcess(WriteForever(shared, 2), "writer_b");
  sim.Run(4);
  const std::string summary = monitor.Summary();
  EXPECT_NE(summary.find("1 finding(s)"), std::string::npos);
  EXPECT_NE(summary.find("MULTIDRIVEN"), std::string::npos);
  monitor.Clear();
  EXPECT_FALSE(monitor.HasFindings());
}

#endif  // EMU_ANALYSIS

// The Pearson core's declared IO (PearsonHashIp::DeclareIo) is the IO the
// monitor sees it perform over the Fig. 5 handshake. A declaration that
// drifts from the code feeds the static checks a different design.
TEST(AnalysisHooks, PearsonCoreDeclaredIoMatchesObserved) {
#ifndef EMU_ANALYSIS
  GTEST_SKIP() << "library built with EMU_ANALYSIS=OFF; kernel hooks compiled out";
#else
  static constexpr std::array<u8, 3> kSeed = {'e', 'm', 'u'};
  Simulator sim;
  HazardMonitor monitor(sim);
  PearsonHashIp core(sim, "pearson");
  core.DeclareIo(sim.AddProcess(core.MakeProcess(), "pearson.core"));
  sim.AddProcess(PearsonHashIp::Seed(core, kSeed), "pearson.client");
  // The element names one process reads and writes in `graph`.
  using NameSets = std::pair<std::set<std::string>, std::set<std::string>>;
  const auto core_io = [](const elab::ElabGraph& graph) {
    NameSets io;
    for (const elab::ElabProcess& process : graph.processes()) {
      if (process.name != "pearson.core") {
        continue;
      }
      for (const usize node : process.reads) {
        io.first.insert(graph.nodes()[node].name);
      }
      for (const usize node : process.writes) {
        io.second.insert(graph.nodes()[node].name);
      }
    }
    return io;
  };
  const NameSets declared = core_io(elab::ElabGraph::FromSimulator(sim, "pearson_ip"));
  ASSERT_TRUE(sim.RunUntil([&] { return sim.live_process_count() == 1; }, 200));
  const NameSets observed = core_io(monitor.ObservedGraph("pearson_ip"));
  EXPECT_EQ(declared.first, observed.first) << "reads";
  EXPECT_EQ(declared.second, observed.second) << "writes";
  EXPECT_EQ(observed.first, (std::set<std::string>{"pearson.data_in", "pearson.init_hash_enable",
                                                   "pearson.init_hash_ready"}));
  EXPECT_EQ(observed.second,
            (std::set<std::string>{"pearson.hash_out", "pearson.init_hash_ready"}));
#endif
}

}  // namespace
}  // namespace emu
