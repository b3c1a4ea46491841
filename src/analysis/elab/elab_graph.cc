#include "src/analysis/elab/elab_graph.h"

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "src/fault/fault_registry.h"
#include "src/hdl/simulator.h"
#include "src/sim/parallel_runner.h"

namespace emu::elab {

namespace {

// Appends `index` once (declaration lists stay duplicate-free even if design
// code declares the same element twice for one process).
void AddUnique(std::vector<usize>& list, usize index) {
  if (std::find(list.begin(), list.end(), index) == list.end()) {
    list.push_back(index);
  }
}

std::string JoinNames(const std::vector<usize>& indices,
                      const std::vector<ElabProcess>& processes) {
  std::string out;
  for (usize i : indices) {
    if (!out.empty()) {
      out += ", ";
    }
    out += processes[i].name;
  }
  return out;
}

// Iterative Tarjan SCC (recursion-free so deep pipelines cannot overflow the
// stack). Returns SCCs with members sorted ascending, ordered by smallest
// member.
std::vector<std::vector<usize>> StronglyConnected(
    const std::vector<std::vector<usize>>& adjacency) {
  const usize n = adjacency.size();
  std::vector<u32> index(n, 0), lowlink(n, 0);
  std::vector<bool> on_stack(n, false), visited(n, false);
  std::vector<usize> stack;
  std::vector<std::vector<usize>> sccs;
  u32 next_index = 1;

  struct Frame {
    usize node;
    usize edge = 0;
  };
  for (usize root = 0; root < n; ++root) {
    if (visited[root]) {
      continue;
    }
    std::vector<Frame> frames{{root}};
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const usize v = frame.node;
      if (frame.edge == 0) {
        visited[v] = true;
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (frame.edge < adjacency[v].size()) {
        const usize w = adjacency[v][frame.edge++];
        if (!visited[w]) {
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink[v] == index[v]) {
        std::vector<usize> scc;
        for (;;) {
          const usize w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) {
            break;
          }
        }
        std::sort(scc.begin(), scc.end());
        sccs.push_back(std::move(scc));
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
      }
    }
  }
  std::sort(sccs.begin(), sccs.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return sccs;
}

}  // namespace

ElabGraph ElabGraph::FromSimulator(const Simulator& sim, std::string design) {
  return FromIo(sim, sim.catalog().io(), std::move(design));
}

ElabGraph ElabGraph::FromIo(const Simulator& sim, const std::vector<ProcessIo>& io,
                            std::string design) {
  ElabGraph graph;
  graph.design_ = std::move(design);

  const Catalog& catalog = sim.catalog();
  std::unordered_map<const void*, usize> by_id;
  std::unordered_map<std::string, usize> by_name;
  for (const ElementDecl& decl : catalog.elements()) {
    const usize index = graph.nodes_.size();
    ElabNode node;
    node.id = decl.id;
    node.kind = decl.kind;
    node.name = decl.name;
    node.no_init = decl.no_init;
    node.depth = decl.depth;
    node.external = decl.external;
    graph.nodes_.push_back(std::move(node));
    by_id[decl.id] = index;
    if (!decl.name.empty()) {
      by_name.try_emplace(decl.name, index);
    }
  }

  // A reference the catalog never saw still needs a node (the completeness
  // checks then flag the missing half); its kind is inferred from the role.
  auto resolve_id = [&](const void* id, NodeKind fallback) -> usize {
    auto it = by_id.find(id);
    if (it != by_id.end()) {
      return it->second;
    }
    const usize index = graph.nodes_.size();
    ElabNode node;
    node.id = id;
    node.kind = fallback;
    node.implicit = true;
    graph.nodes_.push_back(std::move(node));
    by_id[id] = index;
    return index;
  };
  auto resolve_name = [&](const std::string& name, NodeKind fallback) -> usize {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      return it->second;
    }
    const usize index = graph.nodes_.size();
    ElabNode node;
    node.kind = fallback;
    node.name = name;
    node.implicit = true;
    graph.nodes_.push_back(std::move(node));
    by_name[name] = index;
    return index;
  };

  graph.processes_.resize(sim.process_count());
  for (usize p = 0; p < sim.process_count(); ++p) {
    ElabProcess& process = graph.processes_[p];
    process.name = sim.process_name(p);
    if (p >= io.size() || !io[p].declared) {
      continue;
    }
    process.declared = true;
    auto resolve_role = [&](const IoRefs& refs, NodeKind fallback, std::vector<usize>& into,
                            std::vector<usize> ElabNode::* role) {
      for (const void* id : refs.ids) {
        const usize node = resolve_id(id, fallback);
        AddUnique(into, node);
        AddUnique(graph.nodes_[node].*role, p);
      }
      for (const std::string& name : refs.names) {
        const usize node = resolve_name(name, fallback);
        AddUnique(into, node);
        AddUnique(graph.nodes_[node].*role, p);
      }
    };
    resolve_role(io[p].reads, NodeKind::kWire, process.reads, &ElabNode::readers);
    resolve_role(io[p].writes, NodeKind::kWire, process.writes, &ElabNode::writers);
    resolve_role(io[p].pops, NodeKind::kFifo, process.pops, &ElabNode::poppers);
    resolve_role(io[p].pushes, NodeKind::kFifo, process.pushes, &ElabNode::pushers);
  }
  return graph;
}

bool ElabGraph::fully_declared() const {
  for (const ElabProcess& process : processes_) {
    if (!process.declared) {
      return false;
    }
  }
  return true;
}

void ElabGraph::CheckCombLoops(std::vector<Finding>& out) const {
  // Comb dependency edges: writer process -> reader process through a wire.
  std::vector<std::vector<usize>> adjacency(processes_.size());
  for (const ElabNode& node : nodes_) {
    if (node.kind != NodeKind::kWire) {
      continue;
    }
    for (usize w : node.writers) {
      for (usize r : node.readers) {
        if (w == r) {
          continue;  // reading your own wire is a blocking assignment
        }
        adjacency[w].push_back(r);
      }
    }
  }
  for (const auto& scc : StronglyConnected(adjacency)) {
    if (scc.size() < 2) {
      continue;
    }
    // Name the wires that close the cycle: written and read inside the SCC.
    std::unordered_set<usize> members(scc.begin(), scc.end());
    std::string wires;
    for (const ElabNode& node : nodes_) {
      if (node.kind != NodeKind::kWire) {
        continue;
      }
      bool written = false, read = false;
      for (usize w : node.writers) written |= members.count(w) > 0;
      for (usize r : node.readers) read |= members.count(r) > 0;
      if (written && read) {
        if (!wires.empty()) {
          wires += ", ";
        }
        wires += node.name.empty() ? "<anon>" : node.name;
      }
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kCombLoop);
    f.severity = CheckInfoFor(HazardKind::kCombLoop).default_severity;
    f.design = design_;
    f.subject = JoinNames(scc, processes_);
    f.message = "combinational cycle through wires [" + wires +
                "]: no registration order lets every reader observe its same-cycle writer";
    out.push_back(std::move(f));
  }
}

void ElabGraph::CheckMultiDriven(std::vector<Finding>& out) const {
  for (const ElabNode& node : nodes_) {
    if (node.kind != NodeKind::kReg || node.writers.size() < 2) {
      continue;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kMultiDriver);
    f.severity = CheckInfoFor(HazardKind::kMultiDriver).default_severity;
    f.design = design_;
    f.subject = node.name.empty() ? "<anon reg>" : node.name;
    f.message = "register has " + std::to_string(node.writers.size()) +
                " declared writers (" + JoinNames(node.writers, processes_) +
                "): commit value depends on resume order, not design intent";
    out.push_back(std::move(f));
  }
}

void ElabGraph::CheckCombRaces(std::vector<Finding>& out) const {
  for (const ElabNode& node : nodes_) {
    if (node.kind != NodeKind::kWire) {
      continue;
    }
    for (usize r : node.readers) {
      for (usize w : node.writers) {
        if (r >= w) {
          continue;  // reader after (or same as) writer: sees this cycle's value
        }
        Finding f;
        f.check = HazardKindName(HazardKind::kCombRace);
        f.severity = CheckInfoFor(HazardKind::kCombRace).default_severity;
        f.design = design_;
        f.subject = node.name.empty() ? "<anon wire>" : node.name;
        f.message = "'" + processes_[r].name + "' (slot " + std::to_string(r) +
                    ") reads this wire before its writer '" + processes_[w].name + "' (slot " +
                    std::to_string(w) + ") runs: it observes the previous cycle's value";
        out.push_back(std::move(f));
      }
    }
  }
}

void ElabGraph::CheckDeadSignals(std::vector<Finding>& out) const {
  if (!fully_declared()) {
    return;
  }
  for (const ElabNode& node : nodes_) {
    if (node.external || node.name.empty()) {
      continue;
    }
    std::string problem;
    if (node.kind == NodeKind::kWire) {
      if (!node.writers.empty() && node.readers.empty()) {
        problem = "wire is written (" + JoinNames(node.writers, processes_) +
                  ") but never read: dead logic";
      } else if (!node.readers.empty() && node.writers.empty()) {
        problem = "wire is read (" + JoinNames(node.readers, processes_) +
                  ") but never written: readers only ever see the reset value";
      } else if (!node.referenced()) {
        problem = "wire is referenced by no declared process";
      }
    } else if (node.kind == NodeKind::kFifo) {
      if (!node.pushers.empty() && node.poppers.empty()) {
        problem = "fifo is pushed (" + JoinNames(node.pushers, processes_) +
                  ") but never popped: fills once and backpressures forever";
      } else if (!node.poppers.empty() && node.pushers.empty()) {
        problem = "fifo is popped (" + JoinNames(node.poppers, processes_) +
                  ") but never pushed: consumers starve";
      } else if (!node.referenced()) {
        problem = "fifo is referenced by no declared process";
      }
    }
    if (problem.empty()) {
      continue;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kDeadSignal);
    f.severity = CheckInfoFor(HazardKind::kDeadSignal).default_severity;
    f.design = design_;
    f.subject = node.name;
    f.message = std::move(problem);
    out.push_back(std::move(f));
  }
}

void ElabGraph::CheckDeadProcesses(std::vector<Finding>& out) const {
  if (!fully_declared()) {
    return;
  }
  for (usize p = 0; p < processes_.size(); ++p) {
    const ElabProcess& process = processes_[p];
    if (process.pops.empty() && process.reads.empty()) {
      continue;  // zero declared inputs: a source process
    }
    bool reachable = false;
    for (const auto* inputs : {&process.pops, &process.reads}) {
      for (usize n : *inputs) {
        const ElabNode& node = nodes_[n];
        if (node.external || !node.writers.empty() || !node.pushers.empty()) {
          reachable = true;
          break;
        }
      }
      if (reachable) {
        break;
      }
    }
    if (reachable) {
      continue;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kDeadProcess);
    f.severity = CheckInfoFor(HazardKind::kDeadProcess).default_severity;
    f.design = design_;
    f.subject = process.name;
    f.message = "none of the process's declared inputs has a producer anywhere in the "
                "design: it can never receive work";
    out.push_back(std::move(f));
  }
}

void ElabGraph::CheckFifoDeadlocks(std::vector<Finding>& out) const {
  if (!fully_declared()) {
    return;
  }
  // Blocking graph over FIFO nodes: popping f_in while pushing f_out means
  // draining f_in is (conservatively) contingent on space in f_out.
  std::vector<std::vector<usize>> adjacency(nodes_.size());
  for (const ElabProcess& process : processes_) {
    for (usize f_in : process.pops) {
      for (usize f_out : process.pushes) {
        if (f_in != f_out && nodes_[f_in].kind == NodeKind::kFifo &&
            nodes_[f_out].kind == NodeKind::kFifo) {
          adjacency[f_in].push_back(f_out);
        }
      }
    }
  }
  for (const auto& scc : StronglyConnected(adjacency)) {
    if (scc.size() < 2) {
      continue;
    }
    std::unordered_set<usize> ring(scc.begin(), scc.end());
    // A drain breaks the ring: a popper of a ring FIFO that pushes nothing
    // back into the ring, or a ring FIFO drained externally.
    bool drained = false;
    for (usize f : scc) {
      if (nodes_[f].external) {
        drained = true;
        break;
      }
      for (usize p : nodes_[f].poppers) {
        bool pushes_into_ring = false;
        for (usize out_fifo : processes_[p].pushes) {
          pushes_into_ring |= ring.count(out_fifo) > 0;
        }
        if (!pushes_into_ring) {
          drained = true;
          break;
        }
      }
      if (drained) {
        break;
      }
    }
    if (drained) {
      continue;
    }
    std::string names;
    for (usize f : scc) {
      if (!names.empty()) {
        names += " -> ";
      }
      names += nodes_[f].name.empty() ? "<anon fifo>" : nodes_[f].name;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kFifoDeadlock);
    f.severity = CheckInfoFor(HazardKind::kFifoDeadlock).default_severity;
    f.design = design_;
    f.subject = names;
    f.message = "closed backpressure ring with no drain: once every fifo in the ring "
                "fills, all of its processes block forever";
    out.push_back(std::move(f));
  }
}

std::vector<Finding> ElabGraph::Check() const {
  std::vector<Finding> out;
  CheckCombLoops(out);
  CheckMultiDriven(out);
  CheckCombRaces(out);
  CheckDeadSignals(out);
  CheckDeadProcesses(out);
  CheckFifoDeadlocks(out);
  return out;
}

void ElabGraph::DumpDot(std::ostream& os) const {
  os << "digraph emu_elab {\n  rankdir=LR;\n";
  for (usize p = 0; p < processes_.size(); ++p) {
    os << "  p" << p << " [shape=box,label=\"" << processes_[p].name
       << (processes_[p].declared ? "" : " (undeclared)") << "\"];\n";
  }
  for (usize n = 0; n < nodes_.size(); ++n) {
    const ElabNode& node = nodes_[n];
    if (!node.referenced()) {
      continue;
    }
    os << "  e" << n << " [shape=ellipse,label=\""
       << (node.name.empty() ? "<anon>" : node.name) << "\\n" << NodeKindName(node.kind)
       << "\"];\n";
    for (usize w : node.writers) os << "  p" << w << " -> e" << n << ";\n";
    for (usize r : node.readers) os << "  e" << n << " -> p" << r << ";\n";
    for (usize w : node.pushers) os << "  p" << w << " -> e" << n << " [style=dashed];\n";
    for (usize r : node.poppers) os << "  e" << n << " -> p" << r << " [style=dashed];\n";
  }
  os << "}\n";
}

void CheckShardCuts(const ParallelRunner& runner, const std::string& design,
                    std::vector<Finding>& out) {
  CheckShardCuts(runner.cuts(), design, out);
}

void CheckShardCuts(const std::vector<ShardCut>& cuts, const std::string& design,
                    std::vector<Finding>& out) {
  for (const ShardCut& cut : cuts) {
    if (cut.lookahead > 0) {
      continue;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kShardCut);
    f.severity = CheckInfoFor(HazardKind::kShardCut).default_severity;
    f.design = design;
    f.subject = "shard " + std::to_string(cut.from) + " -> " + std::to_string(cut.to);
    f.message = "cross-shard link direction (id " + std::to_string(cut.link_id) +
                ") has zero minimum transit time: the conservative lookahead horizon is "
                "degenerate and the parallel epoch schedule cannot advance soundly";
    out.push_back(std::move(f));
  }
}

void CheckFaultPlanTargets(const FaultPlan& plan,
                           const std::vector<const FaultRegistry*>& registries,
                           const std::string& design, std::vector<Finding>& out) {
  usize registered = 0;
  for (const FaultRegistry* registry : registries) {
    registered += registry->points().size();
  }
  const auto matched = [&registries](const std::string& pattern) {
    for (const FaultRegistry* registry : registries) {
      for (const auto& point : registry->points()) {
        if (FaultPatternMatches(pattern, point->name())) {
          return true;
        }
      }
    }
    return false;
  };
  for (const FaultPlanEntry& entry : plan.entries) {
    if (matched(entry.pattern)) {
      continue;
    }
    Finding f;
    f.check = HazardKindName(HazardKind::kFaultTarget);
    f.severity = CheckInfoFor(HazardKind::kFaultTarget).default_severity;
    f.design = design;
    f.subject = entry.pattern;
    f.message = "fault plan pattern matches no fault point registered by the design (" +
                std::to_string(registered) +
                " points registered): the campaign would silently inject nothing";
    out.push_back(std::move(f));
  }
}

void CheckTopoFaults(const FaultPlan& plan, const std::vector<std::string>& hosts,
                     const std::string& design, std::vector<Finding>& out) {
  const auto known = [&hosts](const std::string& name) {
    for (const std::string& host : hosts) {
      if (host == name) {
        return true;
      }
    }
    return false;
  };
  const auto emit = [&out, &design](Severity severity, const std::string& subject,
                                    std::string message) {
    Finding f;
    f.check = HazardKindName(HazardKind::kFaultTarget);
    f.severity = severity;
    f.design = design;
    f.subject = subject;
    f.message = std::move(message);
    out.push_back(std::move(f));
  };

  for (const TopoFault& tf : plan.topo_events) {
    std::vector<const std::string*> names;
    if (tf.kind == TopoFault::Kind::kPartition) {
      for (const std::string& name : tf.group_a) names.push_back(&name);
      for (const std::string& name : tf.group_b) names.push_back(&name);
    } else {
      names.push_back(&tf.host);
    }
    for (const std::string* name : names) {
      if (!known(*name)) {
        emit(CheckInfoFor(HazardKind::kFaultTarget).default_severity, *name,
             "plan line " + std::to_string(tf.line) + ": topology event '" + tf.ToString() +
                 "' names a host the topology does not have (" + std::to_string(hosts.size()) +
                 " hosts): ChaosDirector::Apply would reject the plan");
      }
    }
  }

  // Lifecycle order per host, walked in event-time order. Ties at the same
  // tick keep plan order (stable sort), matching ChaosDirector's log order.
  std::vector<const TopoFault*> lifecycle;
  for (const TopoFault& tf : plan.topo_events) {
    if (tf.kind != TopoFault::Kind::kPartition) {
      lifecycle.push_back(&tf);
    }
  }
  std::stable_sort(lifecycle.begin(), lifecycle.end(),
                   [](const TopoFault* a, const TopoFault* b) { return a->at < b->at; });
  for (usize i = 0; i < lifecycle.size(); ++i) {
    const TopoFault& tf = *lifecycle[i];
    // Most recent earlier lifecycle event for the same host, if any.
    const TopoFault* prev = nullptr;
    for (usize j = i; j-- > 0;) {
      if (lifecycle[j]->host == tf.host) {
        prev = lifecycle[j];
        break;
      }
    }
    if (tf.kind == TopoFault::Kind::kRestart &&
        (prev == nullptr || prev->kind != TopoFault::Kind::kCrash)) {
      emit(Severity::kWarning, tf.host,
           "plan line " + std::to_string(tf.line) + ": restart of '" + tf.host +
               "' has no earlier crash — this is a power-cycle of an up host; if a crash "
               "was intended the detection invariants will not see one");
    }
    if (tf.kind == TopoFault::Kind::kCrash && prev != nullptr &&
        prev->kind == TopoFault::Kind::kCrash) {
      emit(Severity::kWarning, tf.host,
           "plan line " + std::to_string(tf.line) + ": '" + tf.host +
               "' crashes again at t=" + std::to_string(tf.at) +
               " with no restart after the crash at t=" + std::to_string(prev->at) +
               ": the second crash is a no-op");
    }
  }

  // Crash inside a partition window that names the same host: the window
  // spends part of its span isolating a dead node.
  for (const TopoFault& tf : plan.topo_events) {
    if (tf.kind != TopoFault::Kind::kPartition) {
      continue;
    }
    for (const TopoFault* crash : lifecycle) {
      if (crash->kind != TopoFault::Kind::kCrash || crash->at < tf.from ||
          crash->at >= tf.until) {
        continue;
      }
      const auto in_group = [crash](const std::vector<std::string>& group) {
        for (const std::string& name : group) {
          if (name == crash->host) {
            return true;
          }
        }
        return false;
      };
      if (in_group(tf.group_a) || in_group(tf.group_b)) {
        emit(Severity::kWarning, crash->host,
             "plan line " + std::to_string(tf.line) + ": partition window [" +
                 std::to_string(tf.from) + ", " + std::to_string(tf.until) + ") names '" +
                 crash->host + "', which crashes inside it (line " +
                 std::to_string(crash->line) +
                 "): the overlap conflates partition and crash effects");
      }
    }
  }
}

}  // namespace emu::elab
