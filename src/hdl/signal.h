// Clocked registers and combinational wires.
//
// Reg<T> has Verilog non-blocking-assignment semantics: Write() stores a
// next-state value that becomes visible through Read() only after the
// simulator commits the current clock edge. Wire<T> is an immediate
// (combinational) value whose intra-cycle visibility follows process
// registration order; use it only between a producer process registered
// before its consumer, exactly like a combinational path that settles within
// the cycle.
//
// Both carry an optional name and both emit emu-check hooks in analysis
// builds (EMU_ANALYSIS): multi-driver detection on Reg, registration-order
// race detection on Wire, and read-before-write detection on elements
// constructed with the emu::no_init tag (the X-propagation hazard). See
// src/analysis/hazard.h for the full taxonomy.
//
// Both are wake-tracked for the quiescence scheduler: a committed Reg write
// and an immediate Wire write (when the wire knows its simulator) bump the
// wake epoch, so `co_await WaitUntil(pred)` predicates may read them.
#ifndef SRC_HDL_SIGNAL_H_
#define SRC_HDL_SIGNAL_H_

#include <string>
#include <type_traits>

#include "src/hdl/simulator.h"

#ifdef EMU_ANALYSIS
#include "src/analysis/hazard_monitor.h"
#endif

namespace emu {

// Tag marking a signal as having no meaningful reset value: reading it
// before the first write is the UNINITREAD hazard in analysis builds.
struct NoInit {};
inline constexpr NoInit no_init{};

template <typename T>
class Reg : public Clocked {
 public:
  Reg(Simulator& sim, T initial = T{}) : Reg(sim, std::string(), std::move(initial)) {}

  Reg(Simulator& sim, std::string name, T initial = T{})
      : sim_(sim), name_(std::move(name)), current_(initial), next_(std::move(initial)) {
    // Self-announcing: Write() calls AnnounceDirty, so clean registers are
    // never touched by the per-edge commit sweep.
    sim_.RegisterClocked(this);
    sim_.catalog().AddElement(this, elab::NodeKind::kReg, name_);
  }

  Reg(Simulator& sim, std::string name, NoInit)
      : sim_(sim), name_(std::move(name)), no_default_(true) {
    sim_.RegisterClocked(this);
    sim_.catalog().AddElement(this, elab::NodeKind::kReg, name_, /*no_init=*/true);
  }

  Reg(const Reg&) = delete;
  Reg& operator=(const Reg&) = delete;

  // See the lifetime rule in simulator.h: no unregistration on destruction
  // (analysis builds tombstone the registration instead).
  ~Reg() override = default;

  const std::string& name() const { return name_; }

  const T& Read() const {
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnRegRead(this, name_, no_default_ && !written_);
    }
#endif
    return current_;
  }

  void Write(T value) {
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnRegWrite(this, name_);
    }
#endif
    written_ = true;
    if (!dirty_) {
      dirty_ = true;
      sim_.AnnounceDirty(this);
    }
    next_ = std::move(value);
  }

  // Read of the pending next-state; occasionally needed by testbenches.
  // Deliberately unhooked: it is a simulation artifact, not a design signal.
  const T& Pending() const { return next_; }

  // SEU-style fault injection (emu-fault): flips one bit of the stored
  // value. Both current and pending state flip — Commit() copies next_ over
  // current_ unconditionally, so flipping only current_ would self-heal on
  // the very next edge instead of persisting like a real upset. Integral T
  // only; `bit` is taken modulo the value width.
  void InjectBitFlip(usize bit)
    requires std::is_integral_v<T>
  {
    const T mask = static_cast<T>(T{1} << (bit % (sizeof(T) * 8)));
    current_ = static_cast<T>(current_ ^ mask);
    next_ = static_cast<T>(next_ ^ mask);
  }

  // A clean register has current_ == next_ (InjectBitFlip flips both), so
  // skipping its Commit() across a quiescent window is a no-op.
  void Commit() override {
    if (dirty_) {
      // The committed value may differ from what a parked WaitUntil
      // predicate last observed: make it re-evaluate (see Simulator::
      // NotifyWake). Registers a quiescent design never writes stay clean,
      // so idle windows remain fast-forwardable.
      dirty_ = false;
      sim_.NotifyWake();
    }
    current_ = next_;
  }

 private:
  Simulator& sim_;
  std::string name_;
  T current_{};
  T next_{};
  bool no_default_ = false;
  bool written_ = false;
  bool dirty_ = false;
};

template <typename T>
class Wire {
 public:
  explicit Wire(T initial = T{}) : value_(std::move(initial)) {}

  // Named wires participate in emu-check: combinational-ordering analysis
  // needs to know who reads and writes them.
  Wire(Simulator& sim, std::string name, T initial = T{})
      : sim_(&sim), name_(std::move(name)), value_(std::move(initial)) {
    sim.catalog().AddElement(this, elab::NodeKind::kWire, name_);
  }

  Wire(Simulator& sim, std::string name, NoInit)
      : sim_(&sim), name_(std::move(name)), no_default_(true) {
    sim.catalog().AddElement(this, elab::NodeKind::kWire, name_, /*no_init=*/true);
  }

  const std::string& name() const { return name_; }

  const T& Read() const {
#ifdef EMU_ANALYSIS
    if (sim_ != nullptr) {
      if (HazardMonitor* m = sim_->monitor()) {
        m->OnWireRead(this, name_, no_default_ && !written_);
      }
    }
#endif
    return value_;
  }

  void Write(T value) {
#ifdef EMU_ANALYSIS
    if (sim_ != nullptr) {
      if (HazardMonitor* m = sim_->monitor()) {
        m->OnWireWrite(this, name_);
      }
    }
#endif
    written_ = true;
    value_ = std::move(value);
    if (sim_ != nullptr) {
      // Combinational value changed within the cycle: parked predicates of
      // later-registered processes must observe it this edge.
      sim_->NotifyWake();
    }
  }

 private:
  Simulator* sim_ = nullptr;
  std::string name_;
  T value_{};
  bool no_default_ = false;
  bool written_ = false;
};

}  // namespace emu

#endif  // SRC_HDL_SIGNAL_H_
