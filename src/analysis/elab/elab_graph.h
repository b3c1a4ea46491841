// Whole-design IR materialized from a constructed (but not yet stepped)
// design — the static half of emu-check, and the one graph implementation in
// src/analysis.
//
// Verilator proves RTL lint can run at elaboration; the same is true here
// because the HDL layer records everything needed at construction time: the
// Simulator's elab::Catalog holds every Reg/Wire/Bram/Cam/HashCam/SyncFifo
// (self-registered by their constructors) plus each HwProcess's declared
// read/write sets (elab::IoDecl). FromSimulator() resolves those
// declarations into a bipartite graph — element nodes with
// writer/reader/pusher/popper process lists, process nodes with resolved
// element indices — over which the static checks and DumpDot() run.
// FromIo() builds the same graph from any per-process IO record; the
// runtime HazardMonitor uses it to lower the IO it observed
// (HazardMonitor::ObservedGraph), so both passes share one Tarjan and one
// DOT writer.
//
// Checks that only need the declared edges they inspect (COMBLOOP,
// MULTIDRIVEN, COMBRACE) always run; checks that assert the *absence* of an
// edge anywhere in the design (DEADSIGNAL, DEADPROCESS, FIFODEADLOCK) are
// meaningless on a partially-declared design and only run when every
// process declared its IO (`fully_declared()`).
#ifndef SRC_ANALYSIS_ELAB_ELAB_GRAPH_H_
#define SRC_ANALYSIS_ELAB_ELAB_GRAPH_H_

#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/hdl/elab_catalog.h"

namespace emu {

class FaultRegistry;
class ParallelRunner;
class Simulator;
struct FaultPlan;
struct ShardCut;

namespace elab {

struct ElabNode {
  const void* id = nullptr;
  NodeKind kind = NodeKind::kReg;
  std::string name;
  bool no_init = false;
  usize depth = 0;
  bool external = false;
  bool implicit = false;  // referenced by a declaration but never registered
  // Process indices per role, in declaration order.
  std::vector<usize> writers;
  std::vector<usize> readers;
  std::vector<usize> pushers;
  std::vector<usize> poppers;

  bool referenced() const {
    return !writers.empty() || !readers.empty() || !pushers.empty() || !poppers.empty();
  }
};

struct ElabProcess {
  std::string name;
  bool declared = false;
  // Resolved node indices per role.
  std::vector<usize> reads;
  std::vector<usize> writes;
  std::vector<usize> pops;
  std::vector<usize> pushes;
};

class ElabGraph {
 public:
  // Materializes the IR from `sim`'s catalog and process table. `design`
  // labels findings ("switch", "nat", ...). Declarations that reference an
  // element the catalog never saw produce an implicit node (the completeness
  // checks then flag the missing half).
  static ElabGraph FromSimulator(const Simulator& sim, std::string design = "");
  // Same, with the per-process IO taken from `io` (indexed by registration
  // index) instead of the catalog's declarations; elements still come from
  // the catalog.
  static ElabGraph FromIo(const Simulator& sim, const std::vector<ProcessIo>& io,
                          std::string design);

  const std::vector<ElabNode>& nodes() const { return nodes_; }
  const std::vector<ElabProcess>& processes() const { return processes_; }
  const std::string& design() const { return design_; }

  // True when every process declared its IO: the gate for the
  // whole-design-completeness checks.
  bool fully_declared() const;

  // Runs every static check this graph supports and returns the findings
  // (stable order: check by check, then declaration order).
  std::vector<Finding> Check() const;

  // Individual checks (each appends to `out`).
  void CheckCombLoops(std::vector<Finding>& out) const;      // COMBLOOP
  void CheckMultiDriven(std::vector<Finding>& out) const;    // MULTIDRIVEN
  void CheckCombRaces(std::vector<Finding>& out) const;      // COMBRACE
  void CheckDeadSignals(std::vector<Finding>& out) const;    // DEADSIGNAL (gated)
  void CheckDeadProcesses(std::vector<Finding>& out) const;  // DEADPROCESS (gated)
  void CheckFifoDeadlocks(std::vector<Finding>& out) const;  // FIFODEADLOCK (gated)

  // Graphviz dump of the elaborated design (processes as boxes, elements as
  // ellipses, edges by role).
  void DumpDot(std::ostream& os) const;

 private:
  std::string design_;
  std::vector<ElabNode> nodes_;
  std::vector<ElabProcess> processes_;
};

// SHARDCUT: validates every cross-shard link direction registered with
// `runner` has a positive conservative lookahead. (The runner records each
// ConnectDirection as a ShardCut and aborts on a zero floor, which would
// make the epoch horizon degenerate; lint reports the same rule as a
// finding.)
void CheckShardCuts(const ParallelRunner& runner, const std::string& design,
                    std::vector<Finding>& out);
// Same check over an explicit cut list (unit tests build degenerate cuts
// directly: the runner aborts before recording one).
void CheckShardCuts(const std::vector<ShardCut>& cuts, const std::string& design,
                    std::vector<Finding>& out);

// FAULTTARGET: every pattern in `plan` must match at least one point
// registered in one of `registries` (the registries the plan will be armed
// on); an unmatched pattern is a fault campaign that silently does nothing.
void CheckFaultPlanTargets(const FaultPlan& plan,
                           const std::vector<const FaultRegistry*>& registries,
                           const std::string& design, std::vector<Finding>& out);

// FAULTTARGET over topology-scoped events (emu-gossip): every host named by
// a crash / restart / partition event must exist in `hosts` — an unknown
// host is an error, since ChaosDirector::Apply would reject the whole plan
// at run time (and a typo'd chaos campaign that never runs tests nothing).
// Lifecycle ordering is also checked, as warnings: a restart with no earlier
// crash of that host (power-cycle semantics — legal, usually a typo), a
// second crash with no restart in between (the second is a no-op), and a
// crash landing inside a partition window that names the same host (the
// partition then partly tests a dead node).
void CheckTopoFaults(const FaultPlan& plan, const std::vector<std::string>& hosts,
                     const std::string& design, std::vector<Finding>& out);

}  // namespace elab
}  // namespace emu

#endif  // SRC_ANALYSIS_ELAB_ELAB_GRAPH_H_
