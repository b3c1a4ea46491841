// HazardMonitor: the dynamic half of emu-check.
//
// A monitor attaches to one Simulator and observes kernel events through the
// hooks the HDL layer emits when built with EMU_ANALYSIS (the default): Reg
// and Wire accesses, SyncFifo push/pop traffic, process resumes, and
// post-mortem Step() detection. From that stream it enforces the runtime
// design rules in hazard.h and records which processes wrote and read each
// element. ObservedGraph() lowers that record into the same elab::ElabGraph
// the static pass builds from declarations, so combinational-loop detection
// (AnalyzeCombinationalGraph) and the DOT dump share one implementation with
// emu-lint.
//
// Cost model: with EMU_ANALYSIS compiled in but no monitor attached, every
// hook is a single pointer test; with the CMake option OFF the hooks do not
// exist at all. A monitor must not outlive its Simulator.
#ifndef SRC_ANALYSIS_HAZARD_MONITOR_H_
#define SRC_ANALYSIS_HAZARD_MONITOR_H_

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/analysis/hazard.h"
#include "src/common/types.h"

namespace emu {

class Simulator;

namespace elab {
class ElabGraph;
}  // namespace elab

class HazardMonitor {
 public:
  // Process index used for kernel calls made outside any HwProcess (i.e. by
  // the testbench between Step() calls).
  static constexpr isize kTestbench = -1;

  // Attaches to `sim` (replacing any previously attached monitor) and
  // detaches on destruction.
  explicit HazardMonitor(Simulator& sim);
  ~HazardMonitor();

  HazardMonitor(const HazardMonitor&) = delete;
  HazardMonitor& operator=(const HazardMonitor&) = delete;

  // --- Configuration ---
  void EnableCheck(HazardKind kind, bool enabled);
  bool CheckEnabled(HazardKind kind) const;
  // Kernel operations (signal/FIFO accesses) one process may perform in a
  // single resume before it is flagged as a runaway.
  void set_runaway_budget(u64 budget) { runaway_budget_ = budget; }
  u64 runaway_budget() const { return runaway_budget_; }
  // When set, every report is also printed to stderr as it is found.
  void set_echo(bool echo) { echo_ = echo; }

  // --- Results ---
  const std::vector<HazardReport>& reports() const { return reports_; }
  usize CountOf(HazardKind kind) const;
  bool HasFindings() const { return !reports_.empty(); }
  void Clear();
  // One line per report plus a totals line; "clean" text when empty.
  std::string Summary() const;

  // --- Observed design graph ---
  // The IO every process has been seen to perform, as an ElabGraph in which
  // every process counts as declared: element writers become writes (pushes
  // for FIFOs), readers become reads (pops). Elements follow catalog order,
  // so the graph and its DumpDot() are deterministic. `design` labels it.
  elab::ElabGraph ObservedGraph(std::string design = "") const;
  // Runs ElabGraph::CheckCombLoops over ObservedGraph(); appends one
  // kCombLoop report per cycle not reported before (process = the cycle's
  // process names, the same subject emu-lint gives a declared loop) and
  // returns how many were added. Idempotent across repeat calls.
  usize AnalyzeCombinationalGraph();

  // --- Kernel hooks (called by src/hdl when EMU_ANALYSIS is compiled) ---
  enum class ElementKind : u8 { kReg, kWire, kFifo };

  void OnProcessResume(usize index, const std::string& name);
  void OnRegWrite(const void* id, const std::string& name);
  void OnRegRead(const void* id, const std::string& name, bool uninit);
  void OnWireWrite(const void* id, const std::string& name);
  void OnWireRead(const void* id, const std::string& name, bool uninit);
  void OnFifoCanPush(const void* id, const std::string& name);
  void OnFifoPush(const void* id, const std::string& name, bool accepted);
  void OnFifoPop(const void* id, const std::string& name);
  void OnPostMortemStep(usize dead_elements);

 private:
  struct ElementState {
    std::string name;
    // Last Reg write, for the multi-driver check.
    isize last_writer = kTestbench;
    Cycle last_write_cycle = 0;
    bool written = false;
    // Last CanPush query, for the lost-backpressure check.
    Cycle last_canpush_cycle = 0;
    bool canpush_seen = false;
    // Observed IO (ObservedGraph): every process that ever wrote (pushed) or
    // read (popped) this element.
    std::set<isize> writers;
    std::set<isize> readers;
  };

  ElementState& Element(ElementKind kind, const void* id, const std::string& name);
  // Fallback label for anonymous elements ("Reg@0x..."-style).
  static std::string Label(ElementKind kind, const void* id, const std::string& name);
  const std::string& ProcessLabel(isize index) const;

  // Emits at most once per (kind, id, a, b) tuple; returns whether emitted.
  bool Report(HazardKind kind, const void* id, isize a, isize b, Cycle cycle,
              std::string signal, std::string process, std::string message);
  void BumpEvent();

  Simulator& sim_;
  std::array<bool, kHazardKindCount> enabled_;
  u64 runaway_budget_ = 1u << 20;
  bool echo_ = false;

  std::unordered_map<const void*, ElementState> elements_;
  std::vector<std::string> process_names_;
  std::vector<bool> runaway_reported_;
  u64 events_this_resume_ = 0;
  bool post_mortem_reported_ = false;
  std::set<std::string> comb_cycles_seen_;

  std::set<std::tuple<u8, const void*, isize, isize>> emitted_;
  std::vector<HazardReport> reports_;
};

}  // namespace emu

#endif  // SRC_ANALYSIS_HAZARD_MONITOR_H_
