#include "src/analysis/hazard_monitor.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/analysis/elab/elab_graph.h"
#include "src/hdl/simulator.h"

namespace emu {

HazardMonitor::HazardMonitor(Simulator& sim) : sim_(sim) {
  enabled_.fill(true);
  sim_.AttachMonitor(this);
}

HazardMonitor::~HazardMonitor() {
  if (sim_.monitor() == this) {
    sim_.AttachMonitor(nullptr);
  }
}

void HazardMonitor::EnableCheck(HazardKind kind, bool enabled) {
  enabled_[static_cast<usize>(kind)] = enabled;
}

bool HazardMonitor::CheckEnabled(HazardKind kind) const {
  return enabled_[static_cast<usize>(kind)];
}

usize HazardMonitor::CountOf(HazardKind kind) const {
  usize count = 0;
  for (const HazardReport& report : reports_) {
    if (report.kind == kind) {
      ++count;
    }
  }
  return count;
}

void HazardMonitor::Clear() {
  reports_.clear();
  emitted_.clear();
  comb_cycles_seen_.clear();
  post_mortem_reported_ = false;
  std::fill(runaway_reported_.begin(), runaway_reported_.end(), false);
}

std::string HazardMonitor::Summary() const {
  std::ostringstream os;
  usize errors = 0;
  usize warnings = 0;
  for (const HazardReport& report : reports_) {
    os << report.ToString() << "\n";
    if (report.severity == Severity::kError) {
      ++errors;
    } else if (report.severity == Severity::kWarning) {
      ++warnings;
    }
  }
  if (reports_.empty()) {
    os << "emu-check: clean (no hazards detected)\n";
  } else {
    os << "emu-check: " << reports_.size() << " finding(s): " << errors << " error(s), "
       << warnings << " warning(s)\n";
  }
  return os.str();
}

HazardMonitor::ElementState& HazardMonitor::Element(ElementKind kind, const void* id,
                                                    const std::string& name) {
  ElementState& state = elements_[id];
  if (state.name.empty()) {
    state.name = Label(kind, id, name);
  }
  return state;
}

std::string HazardMonitor::Label(ElementKind kind, const void* id, const std::string& name) {
  if (!name.empty()) {
    return name;
  }
  const char* prefix = kind == ElementKind::kReg    ? "reg"
                       : kind == ElementKind::kWire ? "wire"
                                                    : "fifo";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s@%p", prefix, id);
  return buffer;
}

const std::string& HazardMonitor::ProcessLabel(isize index) const {
  static const std::string kTestbenchLabel = "testbench";
  static const std::string kUnknownLabel = "process?";
  if (index < 0) {
    return kTestbenchLabel;
  }
  const usize i = static_cast<usize>(index);
  if (i < process_names_.size() && !process_names_[i].empty()) {
    return process_names_[i];
  }
  return kUnknownLabel;
}

bool HazardMonitor::Report(HazardKind kind, const void* id, isize a, isize b, Cycle cycle,
                           std::string signal, std::string process, std::string message) {
  if (!CheckEnabled(kind)) {
    return false;
  }
  if (!emitted_.insert({static_cast<u8>(kind), id, a, b}).second) {
    return false;
  }
  HazardReport report;
  report.kind = kind;
  report.severity = CheckInfoFor(kind).default_severity;
  report.cycle = cycle;
  report.signal = std::move(signal);
  report.process = std::move(process);
  report.message = std::move(message);
  if (echo_) {
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
  }
  reports_.push_back(std::move(report));
  return true;
}

void HazardMonitor::BumpEvent() {
  const isize p = sim_.current_process_index();
  if (p < 0) {
    return;
  }
  ++events_this_resume_;
  if (events_this_resume_ <= runaway_budget_) {
    return;
  }
  const usize i = static_cast<usize>(p);
  if (i < runaway_reported_.size() && runaway_reported_[i]) {
    return;
  }
  if (i >= runaway_reported_.size()) {
    runaway_reported_.resize(i + 1, false);
  }
  std::ostringstream msg;
  msg << "performed more than " << runaway_budget_
      << " kernel operations in a single resume without Pause(); likely livelock";
  if (Report(HazardKind::kRunawayProcess, nullptr, p, 0, sim_.now(), "", ProcessLabel(p),
             msg.str())) {
    runaway_reported_[i] = true;
  }
}

void HazardMonitor::OnProcessResume(usize index, const std::string& name) {
  if (index >= process_names_.size()) {
    process_names_.resize(index + 1);
    runaway_reported_.resize(index + 1, false);
  }
  if (process_names_[index].empty() && !name.empty()) {
    process_names_[index] = name;
  }
  events_this_resume_ = 0;
}

void HazardMonitor::OnRegWrite(const void* id, const std::string& name) {
  ElementState& e = Element(ElementKind::kReg, id, name);
  const isize p = sim_.current_process_index();
  const Cycle now = sim_.now();
  if (e.written && e.last_write_cycle == now && e.last_writer != p && e.last_writer >= 0 &&
      p >= 0) {
    std::ostringstream msg;
    msg << "also written by '" << ProcessLabel(e.last_writer)
        << "' this cycle; commit order is call-order dependent (last write wins)";
    Report(HazardKind::kMultiDriver, id, std::min(p, e.last_writer), std::max(p, e.last_writer),
           now, e.name, ProcessLabel(p), msg.str());
  }
  e.written = true;
  e.last_writer = p;
  e.last_write_cycle = now;
  if (p >= 0) {
    e.writers.insert(p);
  }
  BumpEvent();
}

void HazardMonitor::OnRegRead(const void* id, const std::string& name, bool uninit) {
  ElementState& e = Element(ElementKind::kReg, id, name);
  const isize p = sim_.current_process_index();
  if (p >= 0) {
    e.readers.insert(p);
  }
  if (uninit) {
    Report(HazardKind::kUninitRead, id, p, 0, sim_.now(), e.name, ProcessLabel(p),
           "read of no-default Reg before its first write (X propagation)");
  }
  BumpEvent();
}

void HazardMonitor::OnWireWrite(const void* id, const std::string& name) {
  ElementState& e = Element(ElementKind::kWire, id, name);
  const isize p = sim_.current_process_index();
  if (p >= 0) {
    e.writers.insert(p);
  }
  BumpEvent();
}

void HazardMonitor::OnWireRead(const void* id, const std::string& name, bool uninit) {
  ElementState& e = Element(ElementKind::kWire, id, name);
  const isize p = sim_.current_process_index();
  if (p >= 0) {
    e.readers.insert(p);
    for (const isize writer : e.writers) {
      if (writer > p) {
        std::ostringstream msg;
        msg << "reader '" << ProcessLabel(p) << "' is registered before writer '"
            << ProcessLabel(writer) << "': it observes last cycle's value, not this cycle's";
        Report(HazardKind::kCombRace, id, p, writer, sim_.now(), e.name, ProcessLabel(p),
               msg.str());
      }
    }
  }
  if (uninit) {
    Report(HazardKind::kUninitRead, id, p, 0, sim_.now(), e.name, ProcessLabel(p),
           "read of no-default Wire before its first write (X propagation)");
  }
  BumpEvent();
}

void HazardMonitor::OnFifoCanPush(const void* id, const std::string& name) {
  ElementState& e = Element(ElementKind::kFifo, id, name);
  e.canpush_seen = true;
  e.last_canpush_cycle = sim_.now();
  BumpEvent();
}

void HazardMonitor::OnFifoPush(const void* id, const std::string& name, bool accepted) {
  ElementState& e = Element(ElementKind::kFifo, id, name);
  const isize p = sim_.current_process_index();
  const Cycle now = sim_.now();
  if (accepted) {
    if (p >= 0) {
      e.writers.insert(p);
    }
  } else if (!e.canpush_seen || e.last_canpush_cycle != now) {
    Report(HazardKind::kLostBackpressure, id, p, 0, now, e.name, ProcessLabel(p),
           "Push() on a full FIFO dropped a value and CanPush() was never "
           "consulted this cycle (unobserved backpressure)");
  }
  BumpEvent();
}

void HazardMonitor::OnFifoPop(const void* id, const std::string& name) {
  ElementState& e = Element(ElementKind::kFifo, id, name);
  const isize p = sim_.current_process_index();
  if (p >= 0) {
    e.readers.insert(p);
  }
  BumpEvent();
}

void HazardMonitor::OnPostMortemStep(usize dead_elements) {
  if (post_mortem_reported_) {
    return;
  }
  std::ostringstream msg;
  msg << "Step() ran after " << dead_elements
      << " registered Clocked element(s) were destroyed; see the lifetime rule in "
         "src/hdl/simulator.h";
  if (Report(HazardKind::kPostMortemStep, nullptr, static_cast<isize>(dead_elements), 0,
             sim_.now(), "", "testbench", msg.str())) {
    post_mortem_reported_ = true;
  }
}

elab::ElabGraph HazardMonitor::ObservedGraph(std::string design) const {
  std::vector<elab::ProcessIo> io(
      sim_.process_count(),
      elab::ProcessIo{.declared = true, .reads = {}, .writes = {}, .pops = {}, .pushes = {}});
  for (const elab::ElementDecl& decl : sim_.catalog().elements()) {
    const auto it = elements_.find(decl.id);
    if (it == elements_.end()) {
      continue;
    }
    const bool fifo = decl.kind == elab::NodeKind::kFifo;
    for (const isize w : it->second.writers) {
      elab::ProcessIo& process = io[static_cast<usize>(w)];
      (fifo ? process.pushes : process.writes).ids.push_back(decl.id);
    }
    for (const isize r : it->second.readers) {
      elab::ProcessIo& process = io[static_cast<usize>(r)];
      (fifo ? process.pops : process.reads).ids.push_back(decl.id);
    }
  }
  return elab::ElabGraph::FromIo(sim_, io, std::move(design));
}

usize HazardMonitor::AnalyzeCombinationalGraph() {
  std::vector<Finding> loops;
  ObservedGraph().CheckCombLoops(loops);
  usize added = 0;
  for (Finding& loop : loops) {
    if (!comb_cycles_seen_.insert(loop.subject).second) {
      continue;
    }
    // Each cycle gets its own dedup key: the count of cycles seen so far.
    if (Report(HazardKind::kCombLoop, nullptr, static_cast<isize>(comb_cycles_seen_.size()), 0,
               sim_.now(), "", std::move(loop.subject), std::move(loop.message))) {
      ++added;
    }
  }
  return added;
}

}  // namespace emu
