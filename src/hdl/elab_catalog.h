// Elaboration catalog: the HDL layer's passive record of design structure.
//
// Every Reg/Wire/SyncFifo/Bram/Cam/HashCam registers itself here at
// construction time (one push per element, nothing per access), and design
// code declares each HwProcess's read/write sets through IoDecl right after
// Simulator::AddProcess. The catalog is pure bookkeeping — it enforces
// nothing. The static half of emu-check (src/analysis/elab) reads it to
// materialize a whole-design IR *before* a single cycle runs: that is what
// makes elaboration-time lint possible, where the HazardMonitor only ever
// sees the edges a workload happens to exercise.
//
// Identity: elements are keyed by object address (the same convention the
// HazardMonitor uses). IO declarations may also reference elements by their
// constructed name ("mac_cam"), which matters when the design only holds an
// interface pointer whose address differs from the registered subobject.
#ifndef SRC_HDL_ELAB_CATALOG_H_
#define SRC_HDL_ELAB_CATALOG_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace emu::elab {

enum class NodeKind : u8 {
  kReg = 0,
  kWire,
  kFifo,
  kBram,
  kCam,
  kHashCam,
};

inline const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kReg: return "reg";
    case NodeKind::kWire: return "wire";
    case NodeKind::kFifo: return "fifo";
    case NodeKind::kBram: return "bram";
    case NodeKind::kCam: return "cam";
    case NodeKind::kHashCam: return "hashcam";
  }
  return "?";
}

struct ElementDecl {
  const void* id = nullptr;
  NodeKind kind = NodeKind::kReg;
  std::string name;      // may be empty (anonymous element)
  bool no_init = false;  // constructed with emu::no_init
  usize depth = 0;       // FIFO capacity; 0 for non-FIFOs
  // Fed or drained from outside any process (testbench injection, port wire
  // delivery): exempt from dead-signal / dead-process reasoning.
  bool external = false;
};

// One role's references: by element address and/or by element name, resolved
// against the catalog when the ElabGraph is built.
struct IoRefs {
  std::vector<const void*> ids;
  std::vector<std::string> names;

  bool empty() const { return ids.empty() && names.empty(); }
};

// Declared read/write sets of one HwProcess. `declared` distinguishes "this
// process touches nothing" (declared, all sets empty) from "nobody told us"
// (undeclared) — the static checks that need whole-design knowledge only run
// when every process is declared.
struct ProcessIo {
  bool declared = false;
  IoRefs reads;   // Reg/Wire/Bram/Cam reads (combinational inputs)
  IoRefs writes;  // Reg/Wire/Bram/Cam writes
  IoRefs pops;    // SyncFifo consumer side
  IoRefs pushes;  // SyncFifo producer side
};

class Catalog {
 public:
  // Registers (or refreshes, on address reuse) element `id`.
  void AddElement(const void* id, NodeKind kind, std::string name, bool no_init = false,
                  usize depth = 0) {
    auto [it, inserted] = index_.try_emplace(id, elements_.size());
    if (inserted) {
      elements_.push_back(ElementDecl{id, kind, std::move(name), no_init, depth, false});
      return;
    }
    elements_[it->second] = ElementDecl{id, kind, std::move(name), no_init, depth, false};
  }

  // Marks `id` as externally fed/drained (testbench injection point).
  void MarkExternal(const void* id) {
    auto it = index_.find(id);
    if (it != index_.end()) {
      elements_[it->second].external = true;
    }
  }

  ProcessIo& Io(usize process_index) {
    if (process_index >= io_.size()) {
      io_.resize(process_index + 1);
    }
    return io_[process_index];
  }

  const std::vector<ElementDecl>& elements() const { return elements_; }
  const std::vector<ProcessIo>& io() const { return io_; }

  const ElementDecl* Find(const void* id) const {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &elements_[it->second];
  }

 private:
  std::vector<ElementDecl> elements_;
  std::unordered_map<const void*, usize> index_;
  std::vector<ProcessIo> io_;  // indexed by process registration index
};

// Fluent declaration helper:
//
//   const usize p = sim.AddProcess(LookupStage(), "switch_lookup");
//   elab::IoDecl(sim.catalog(), p)
//       .Pops(dp.rx).Pushes(fifo.get()).Reads("mac_cam");
//
// Overloads take the element object itself (address identity) or its
// constructed name (for polymorphic members held by interface pointer).
class IoDecl {
 public:
  IoDecl(Catalog& catalog, usize process_index) : io_(catalog.Io(process_index)) {
    io_.declared = true;
  }

  IoDecl& Reads(const void* id) { io_.reads.ids.push_back(id); return *this; }
  IoDecl& Reads(const std::string& name) { io_.reads.names.push_back(name); return *this; }
  IoDecl& Writes(const void* id) { io_.writes.ids.push_back(id); return *this; }
  IoDecl& Writes(const std::string& name) { io_.writes.names.push_back(name); return *this; }
  IoDecl& Pops(const void* id) { io_.pops.ids.push_back(id); return *this; }
  IoDecl& Pops(const std::string& name) { io_.pops.names.push_back(name); return *this; }
  IoDecl& Pushes(const void* id) { io_.pushes.ids.push_back(id); return *this; }
  IoDecl& Pushes(const std::string& name) { io_.pushes.names.push_back(name); return *this; }

 private:
  ProcessIo& io_;
};

}  // namespace emu::elab

#endif  // SRC_HDL_ELAB_CATALOG_H_
