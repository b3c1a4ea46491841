// Synchronous FIFO with RTL timing semantics.
//
// Within a cycle, Pop() returns the pre-edge head and Push() enqueues a value
// that becomes visible only after the edge commits, so a producer and a
// consumer touching the same FIFO in the same cycle behave like two RTL
// modules sharing a BRAM FIFO. Depth is enforced against committed occupancy
// plus same-cycle pushes.
//
// Storage is one power-of-two ring holding the committed items followed by
// the edge's pending pushes. A pop frees its slot at once (nothing is left
// for Commit() to erase), and Commit() only publishes the pending count. The
// ring grows on demand, doubling up to the depth rounded up to a power of
// two; it is never preallocated to the depth, because a design declares far
// more slots than it ever fills (the NetFPGA shell alone declares 2,432).
//
// Design rule (enforced by emu-check in analysis builds): consult CanPush()
// before Push() in the same cycle. A Push() that returns false without a
// same-cycle CanPush() query is the LOSTBACKPRESSURE hazard — silently
// dropped data.
#ifndef SRC_HDL_FIFO_H_
#define SRC_HDL_FIFO_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/hdl/resource_model.h"
#include "src/hdl/simulator.h"
#include "src/obs/trace_hooks.h"

#ifdef EMU_ANALYSIS
#include "src/analysis/hazard_monitor.h"
#endif

namespace emu {

template <typename T>
class SyncFifo : public Clocked {
 public:
  // `word_bits` feeds the resource model (a FIFO of 512 x 256-bit words costs
  // more BRAM than one of 16 x 8-bit words).
  SyncFifo(Simulator& sim, usize depth, usize word_bits)
      : SyncFifo(sim, std::string(), depth, word_bits) {}

  SyncFifo(Simulator& sim, std::string name, usize depth, usize word_bits)
      : sim_(sim),
        name_(std::move(name)),
        depth_(depth),
        resources_(FifoResources(depth, word_bits)) {
    if (depth == 0) {
      Fatal("constructed with depth 0");
    }
    // Self-announcing: Push calls AnnounceDirty on the clean→dirty
    // transition, so the scheduler commits this FIFO only on edges where
    // something was pushed (a pop leaves nothing to commit).
    sim_.RegisterClocked(this, /*self_announcing=*/true);
    sim_.catalog().AddElement(this, elab::NodeKind::kFifo, name_, /*no_init=*/false, depth);
  }

  SyncFifo(const SyncFifo&) = delete;
  SyncFifo& operator=(const SyncFifo&) = delete;

  // Intentionally does NOT unregister: see the lifetime rule in simulator.h
  // (a Clocked element and its Simulator may be torn down in either order,
  // provided Step() is never called after the element dies).
  ~SyncFifo() override = default;

  const std::string& name() const { return name_; }
  usize depth() const { return depth_; }
  const ResourceUsage& resources() const { return resources_; }

  // Committed occupancy minus same-cycle pops (what the consumer side sees).
  // A stalled FIFO reads as empty: the consumer port is frozen.
  usize Size() const { return Stalled() ? 0 : count_; }
  bool Empty() const { return Size() == 0; }

  // Fault injection (emu-fault): freezes both ports for `cycles` cycles —
  // producers see full, consumers see empty; contents are preserved. A
  // CanPush()-honouring producer backpressures through the stall; one that
  // pushes blind surfaces as LOSTBACKPRESSURE in analysis builds.
  void InjectStall(Cycle cycles) {
    stall_until_ = std::max(stall_until_, sim_.now() + static_cast<Cycle>(cycles));
    // The stall ends by the clock, not by any process's action: schedule a
    // forced wake so parked consumers/producers re-evaluate at expiry.
    sim_.RequestWakeAt(stall_until_);
    // Predicates over this FIFO's occupancy observe the stall right away.
    sim_.NotifyWake();
  }
  bool Stalled() const { return sim_.now() < stall_until_; }

  bool CanPush() const {
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoCanPush(this, name_);
    }
#endif
    return CanPushRaw();
  }

  // CanPush() without the emu-check observation hook, for WaitUntil wake
  // predicates: a parked producer polling for space is not "consulting
  // backpressure before a push" and must not register as such. Use CanPush()
  // on the cycle you actually push.
  bool PollCanPush() const { return CanPushRaw(); }

  // Returns false (and drops nothing) when full, mirroring backpressure.
  bool Push(T value) {
    const bool accepted = CanPushRaw();
    if (accepted) {
      // Packet flight recorder: a traced frame entering a named FIFO opens a
      // residency span (closed by the Pop that drains it).
      if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
        const u64 flight = obs::FrameTraceId(value);
        if (flight != 0 && !name_.empty()) {
          obs::EmitAsyncBegin(tb, name_, sim_.NowPs(), flight);
        }
      }
      if (pending_ == 0) {
        sim_.AnnounceDirty(this);
      }
      const usize used = count_ + pending_;
      if (used == capacity_) {
        Grow();
      }
      ring_[(head_ + used) & (capacity_ - 1)] = std::move(value);
      ++pending_;
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPush(this, name_, accepted);
    }
#endif
    return accepted;
  }

  const T& Front() const {
    if (Empty()) [[unlikely]] {
      Fatal("Front() on empty FIFO (underflow)");
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPop(this, name_);
    }
#endif
    return ring_[head_];
  }

  T Pop() {
    if (Empty()) [[unlikely]] {
      Fatal("Pop() on empty FIFO (underflow)");
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPop(this, name_);
    }
#endif
    // The slot is free at once: a same-edge push may land in it, behind the
    // committed items.
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      const u64 flight = obs::FrameTraceId(value);
      if (flight != 0 && !name_.empty()) {
        obs::EmitAsyncEnd(tb, name_, sim_.NowPs(), flight);
      }
    }
    // Space freed by a pop is visible to CanPush in the same cycle: a parked
    // producer registered after this consumer must re-evaluate this edge.
    sim_.NotifyWake();
    return value;
  }

  void Commit() override {
    if (pending_ > 0) {
      // Pushed items become visible to consumers at this edge's commit; wake
      // parked consumers for the next edge. (Pops need no commit at all:
      // Size/CanPush already accounted for them at Pop() time.)
      count_ += pending_;
      pending_ = 0;
      sim_.NotifyWake();
    }
  }

  bool CommitPending() const override { return pending_ > 0; }

 private:
  bool CanPushRaw() const { return !Stalled() && count_ + pending_ < depth_; }

  // Doubles the ring (1 slot at the first push) and lays its items out from
  // slot 0. Called only when every slot is used, i.e. with fewer than depth_
  // items, so the ring never outgrows the depth rounded up to a power of two.
  void Grow() {
    const usize used = count_ + pending_;
    const usize grown = capacity_ == 0 ? 1 : capacity_ * 2;
    auto ring = std::make_unique<T[]>(grown);
    for (usize i = 0; i < used; ++i) {
      ring[i] = std::move(ring_[(head_ + i) & (capacity_ - 1)]);
    }
    ring_ = std::move(ring);
    capacity_ = grown;
    head_ = 0;
  }

  // Underflow/misuse is UB in RTL terms; stop with an attributable message
  // (the bare assert() this replaces vanished in NDEBUG builds and named no
  // element when it did fire).
  [[noreturn]] void Fatal(const char* what) const {
    std::fprintf(stderr, "emu: fatal: SyncFifo '%s': %s\n",
                 name_.empty() ? "<anonymous>" : name_.c_str(), what);
    std::abort();
  }

  Simulator& sim_;
  std::string name_;
  usize depth_;
  ResourceUsage resources_;
  std::unique_ptr<T[]> ring_;
  usize capacity_ = 0;  // a power of two once the first push has landed
  usize head_ = 0;      // ring slot of Front()
  usize count_ = 0;     // committed items not yet popped
  usize pending_ = 0;   // this edge's pushes, in the slots behind the committed items
  Cycle stall_until_ = 0;
};

}  // namespace emu

#endif  // SRC_HDL_FIFO_H_
