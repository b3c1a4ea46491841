// Cycle-accurate single-clock-domain simulator.
//
// Each Step() models one rising clock edge:
//   1. every live HwProcess is resumed once, in registration order
//      (processes observe only pre-edge values of clocked state; a wire
//      read before its writer runs sees last cycle's value, which emu-lint
//      and emu-check report as COMBRACE);
//   2. every registered Clocked element commits its next-state
//      (non-blocking-assignment update).
// This is the substrate the Emu FPGA target runs on; the clock rate (200 MHz
// for NetFPGA SUME, 250 MHz for the P4FPGA baseline, §5.3) converts cycle
// counts to wall-clock latency.
//
// --- Busy-path kernel (emu-speed) ---
//
// The per-edge loop is organized around three structures that keep the busy
// path (saturated load, fast-forward never fires) out of pointer-chasing:
//
//   * Scheduling state lives in a struct-of-arrays Slot table owned by the
//     Simulator, not in each coroutine's promise. A process's promise fields
//     are only an announcement channel: awaiters write them at suspension and
//     Reclassify() moves them into the Slot right after Resume() returns, so
//     the sweep touches one contiguous array instead of one coroutine frame
//     per process per edge. Sleeps are absolute wake cycles (no per-edge
//     decrement), which also makes FastForward O(1).
//
//   * Commits are demand-driven. Elements whose mutators announce themselves
//     (SyncFifo, Reg, Bram, Cam — RegisterClocked(self_announcing=true))
//     are committed only on edges where they actually buffered something
//     (AnnounceDirty → dirty queue); a clean element's Commit() is an
//     idempotent no-op by kernel invariant, so skipping it is invisible.
//     Elements that never announce stay on the unconditional commit list.
//
//   * Coroutine frames bump-allocate from the Simulator's arena when design
//     construction is wrapped in a CoroFrameArenaScope (NetFpgaPipeline does
//     this), packing a pipeline's frames contiguously.
//
// Run() and RunUntil() share one loop. An edge that leaves any process
// runnable (it suspended on Pause()) makes the next edge due, so the loop
// steps straight into it; only after an edge that left every process
// sleeping, parked or done does it consult the quiescence scan below. The
// skip is exact, not a heuristic: the scan returns 0 whenever a process is
// runnable, so every edge, predicate poll and fast-forward is unchanged.
//
// --- Quiescence-aware fast path ---
//
// Run()/RunUntil() additionally fast-forward over *quiescent windows*:
// spans of cycles in which every live process is either sleeping off a
// PauseFor or parked on a WaitUntil predicate that provably cannot have
// changed. During such a window no process body runs, so no next-state is
// written, and every Commit() in the kernel is idempotent on clean state —
// skipping the edges entirely (processes, commits and all) is therefore
// invisible: now() advances in one jump and every observable (egress,
// digests, hazard reports, VCD, fault logs) is bit-identical to stepping
// edge by edge. The window is clamped by
//   - the earliest PauseFor expiry (min over slot wake cycles),
//   - forced wakes (RequestWakeAt: FIFO stall expiries),
//   - the next tick an attached FaultRegistry must sample (armed
//     callback targets, see FaultRegistry::NextTickDemand),
//   - the next pending event of an attached sim::EventScheduler.
// Anything that demands per-edge observation disables fast-forward
// entirely: an attached HazardMonitor (EMU_ANALYSIS), attached
// EdgeObservers (VCD tracers), or SetFastPath(false).
//
// Parked predicates are re-evaluated lazily via a wake epoch: every
// mutation of wake-tracked state (SyncFifo push-commits/pops/stalls,
// explicit NotifyWake calls) bumps the epoch, and a parked process whose
// predicate was last evaluated at the current epoch is skipped without
// re-evaluation. With the fast path off (or a monitor attached) predicates
// are evaluated on every edge — the reference semantics the equivalence
// suite (tests/kernel_equiv_test.cc) checks the fast path against.
#ifndef SRC_HDL_SIMULATOR_H_
#define SRC_HDL_SIMULATOR_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/arena.h"
#include "src/hdl/elab_catalog.h"
#include "src/hdl/process.h"

namespace emu {

class EventScheduler;
class FaultRegistry;
class HazardMonitor;
class MetricsRegistry;
class Simulator;

// Anything with per-edge commit semantics (Reg, SyncFifo, CAM write ports...).
//
// In analysis builds (EMU_ANALYSIS) a Clocked element carries a back-pointer
// to its Simulator so its destructor can tombstone the registration slot:
// a later Step() then produces a hard POSTMORTEMSTEP diagnostic instead of
// the silent use-after-free the lifetime rule below would otherwise permit.
class Clocked {
 public:
  virtual ~Clocked();
  virtual void Commit() = 0;

  // True when the next Commit() would apply buffered state (a written Reg, a
  // pending FIFO push, a buffered BRAM/CAM write, ...). The scheduler only
  // fast-forwards across a quiescent window when every registered element
  // reports no pending commit; the conservative default pins subclasses that
  // do not implement the query to exact per-edge stepping.
  virtual bool CommitPending() const { return true; }

 private:
  friend class Simulator;
  // Set while the element sits on its Simulator's dirty commit queue
  // (AnnounceDirty), so repeated mutations in one edge enqueue it once.
  bool commit_enqueued_ = false;
#ifdef EMU_ANALYSIS
  Simulator* analysis_owner_ = nullptr;
#endif
};

// Per-edge observer (VcdTracer and friends): OnEdge(now) runs after the
// commits of every executed edge with now() already advanced past it —
// exactly what the classic `Step(); Sample();` testbench loop observed.
// While any observer is attached every cycle is executed (no fast-forward),
// so observers see a gapless cycle stream.
class EdgeObserver {
 public:
  virtual ~EdgeObserver() = default;
  virtual void OnEdge(Cycle now) = 0;
};

// Scheduler statistics for one process (see Simulator::ProfileReport).
struct ProcessProfile {
  std::string name;
  u64 resumes = 0;       // coroutine resumptions (edges the body actually ran)
  u64 cycles_awake = 0;  // edges the scheduler did work for it (resume or poll)
  u64 polls = 0;         // parked-predicate evaluations
  // Wall time inside resumes. Exact under ProfilingMode::kFull; under
  // kSampled only resumes on timed edges carry the clock pair, so this is a
  // 1-in-stride sample of the true total (scale by sample_stride for an
  // estimate). Zero when profiling is off.
  u64 wall_ns = 0;
};

// Wall-clock attribution granularity (see Simulator::SetProfilingMode).
enum class ProfilingMode : u8 {
  kOff = 0,      // counts only, no clock reads (the default)
  kSampled = 1,  // 1-in-stride edges timed: cheap enough to leave on in soaks
  kFull = 2,     // every edge and every resume timed (two clock reads each)
};

// Wall time attributed to one kernel phase while profiling was active.
// `calls` counts every entry into the phase; `timed_calls` counts the subset
// that carried a steady_clock pair (all of them under kFull, 1-in-stride
// under kSampled), and `wall_ns` is the time inside those timed entries.
struct PhaseProfile {
  u64 calls = 0;
  u64 timed_calls = 0;
  u64 wall_ns = 0;
  // Sample-scaled estimate of the phase's true total wall time.
  double EstimatedTotalNs() const {
    if (timed_calls == 0) {
      return 0.0;
    }
    return static_cast<double>(wall_ns) * static_cast<double>(calls) /
           static_cast<double>(timed_calls);
  }
};

struct SimProfile {
  // Whether wall-clock attribution was active when the report was taken.
  // The scalar counters below (edges_run, ...) are always valid; phase and
  // per-process wall numbers are only meaningful when `populated()`.
  bool profiling_enabled = false;
  ProfilingMode mode = ProfilingMode::kOff;
  u64 sample_stride = 1;          // 1 under kFull; the 1-in-N stride under kSampled
  u64 edges_run = 0;              // edges actually executed
  u64 cycles_fast_forwarded = 0;  // cycles skipped by quiescence jumps
  u64 jumps = 0;                  // number of fast-forward jumps
  u64 edges_timed = 0;            // executed edges that carried phase clock pairs
  // Kernel phases (src/obs/pulse.h exports these as JSON):
  PhaseProfile resume_dispatch;   // SweepProcesses: resume + parked-poll sweep
  PhaseProfile commit_sweep;      // CommitEdge: unconditional list + dirty queue
  PhaseProfile quiescence_scan;   // QuiescentWindow calls from Run/RunUntil
  PhaseProfile fast_forward;      // FastForward jumps (always timed when enabled)
  PhaseProfile flat_span;         // always zero: no kernel phase writes it (e2ebench reads it)
  std::vector<ProcessProfile> processes;
  // True when the report carries actual wall-clock phase data (profiling was
  // on AND at least one phase was timed) — callers printing a phase table
  // should check this instead of printing all-zero rows.
  bool populated() const {
    return profiling_enabled &&
           (edges_timed > 0 || quiescence_scan.timed_calls > 0 || fast_forward.timed_calls > 0);
  }
};

class Simulator {
 public:
  static constexpr u64 kNetFpgaClockHz = 200'000'000;  // NetFPGA SUME native rate (§5.1)

  explicit Simulator(u64 clock_hz = kNetFpgaClockHz);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  u64 clock_hz() const { return clock_hz_; }
  Picoseconds cycle_period_ps() const { return cycle_period_ps_; }

  Cycle now() const { return now_; }
  Picoseconds NowPs() const { return static_cast<Picoseconds>(now_) * cycle_period_ps_; }

  // Registers a process; it first runs on the next clock edge. Returns the
  // process's registration index — the handle elab::IoDecl uses to declare
  // its read/write sets.
  usize AddProcess(HwProcess process, std::string name);

  // Clocked elements register themselves on construction. `self_announcing`
  // elements promise that every mutation that can leave them with a pending
  // commit calls AnnounceDirty(); the scheduler then commits them only on
  // dirty edges. Elements registered without the promise are committed on
  // every executed edge (the conservative default).
  //
  // LIFETIME RULE: a Clocked element and its Simulator may be destroyed in
  // either order, but Step() must never run after any registered element has
  // died (element destructors deliberately do not unregister, so a design
  // and its simulator can be torn down together in any member order).
  // UnregisterClocked exists for dynamic reconfiguration of a live design.
  void RegisterClocked(Clocked* element, bool self_announcing = false);
  void UnregisterClocked(Clocked* element);

  // Enqueues a self-announcing element for commit on the current edge.
  // Idempotent per edge; called by the element's mutators on the clean→dirty
  // transition.
  void AnnounceDirty(Clocked* element) {
    if (!element->commit_enqueued_) {
      element->commit_enqueued_ = true;
      dirty_.push_back(element);
    }
  }

  // Advances one clock edge (always executed exactly; fast-forwarding only
  // happens inside Run/RunUntil).
  void Step();

  void Run(Cycle cycles);

  // Steps until `done()` is true (checked before each edge). Returns false
  // if `limit` edges elapse first. So that the fast path can skip quiescent
  // windows without missing the stop condition, `done` must be a pure
  // function of simulation state (FIFO occupancy, collected egress, ...) —
  // not of now(); bound time with `limit` instead.
  bool RunUntil(const std::function<bool()>& done, Cycle limit);

  usize live_process_count() const;

  usize process_count() const { return processes_.size(); }
  const std::string& process_name(usize index) const { return processes_[index].name; }

  // --- Quiescence control ---

  // Announces a mutation of wake-tracked state: every parked WaitUntil
  // predicate becomes eligible for re-evaluation.
  void NotifyWake() { ++wake_epoch_; }
  u64 wake_epoch() const { return wake_epoch_; }

  // Schedules a wake at `cycle` for time-dependent state changes that no
  // process announces (a FIFO stall expiring): the scheduler will execute
  // that edge and re-evaluate parked predicates there.
  void RequestWakeAt(Cycle cycle) { forced_wakes_.insert(cycle); }

  // Toggles the quiescence fast path (default on). With it off Run/RunUntil
  // execute every edge and evaluate every parked predicate per edge — the
  // reference semantics the equivalence suite compares against.
  void SetFastPath(bool enabled) { fast_path_ = enabled; }
  bool fast_path() const { return fast_path_; }

  // Attaches a FaultRegistry: Step() then samples its armed callback targets
  // once per edge (registry->Tick(now)) before processes run, and the fast
  // path consults NextTickDemand/NoteSkippedTicks so replay logs and
  // opportunity counts stay bit-identical to per-edge ticking. Also hands the
  // registry this clock's tick->ps scale so fault firings land on the trace
  // timeline (emu-scope). nullptr detaches. The registry must outlive the
  // attachment.
  void AttachFaultRegistry(FaultRegistry* registry);
  FaultRegistry* fault_registry() const { return fault_registry_; }

  // Attaches an EventScheduler whose pending events gate fast-forwarding:
  // the simulator never jumps past the fabric cycle of the next pending
  // event, so a testbench interleaving the two clock domains observes the
  // same interleaving with the fast path on or off. nullptr detaches.
  void AttachEventScheduler(EventScheduler* scheduler) { event_scheduler_ = scheduler; }

  // --- Per-edge observers (VCD tracers, ...) ---
  void AttachEdgeObserver(EdgeObserver* observer);
  void DetachEdgeObserver(EdgeObserver* observer);

  // --- Profiler ---
  // Resume/poll counts are always collected (they are a handful of
  // increments per edge); wall-clock attribution is off by default because
  // kFull adds two steady_clock reads per resume. kSampled times one edge in
  // `sample_stride` on average (phases and per-resume attribution alike),
  // amortizing the clock reads (3 per timed edge plus 2 per resume on it)
  // over the stride — cheap enough to leave on for soak runs
  // (bench/microbench_kernel --profile-overhead gates it ≤5%). The gap
  // between timed edges is drawn from [stride - stride/2, stride +
  // stride/2], so a design with a fixed period cannot alias with the sample
  // and hide a process from it.
  void SetProfilingMode(ProfilingMode mode, u64 sample_stride = kDefaultProfilingStride) {
    profiling_mode_ = mode;
    sample_stride_ = mode == ProfilingMode::kFull ? 1 : (sample_stride == 0 ? 1 : sample_stride);
    edge_countdown_ = NextSampleGap();
    scan_countdown_ = NextSampleGap();
  }
  ProfilingMode profiling_mode() const { return profiling_mode_; }
  SimProfile ProfileReport() const;

  static constexpr u64 kDefaultProfilingStride = 64;

  // Registers the kernel's scheduler statistics (the scalar SimProfile
  // fields) under `prefix` (e.g. "sim"): edges_run / cycles_fast_forwarded /
  // jumps counters plus a live_processes gauge.
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

  // --- Elaboration catalog (src/hdl/elab_catalog.h) ---
  // Construction-time record of the design: elements self-register here and
  // design code declares per-process IO. Read by src/analysis (the static
  // ElabGraph and the HazardMonitor's observed graph); never consulted by
  // Step() itself.
  elab::Catalog& catalog() { return catalog_; }
  const elab::Catalog& catalog() const { return catalog_; }

  // Arena backing the design's coroutine frames; wrap process construction
  // in CoroFrameArenaScope(sim.frame_arena()) to pack frames contiguously
  // and tie their storage to the Simulator's lifetime.
  BumpArena& frame_arena() { return frame_arena_; }

  // --- Analysis layer (src/analysis) ---
  // Attaches a HazardMonitor (nullptr detaches). The monitor only receives
  // events when the library is built with EMU_ANALYSIS; otherwise the kernel
  // contains no hooks and an attached monitor simply observes nothing.
  void AttachMonitor(HazardMonitor* monitor) { monitor_ = monitor; }
  HazardMonitor* monitor() const { return monitor_; }

  // Index of the process currently being resumed by Step(), or -1 between
  // processes / outside Step() (i.e. testbench context). Only maintained
  // while a monitor is attached.
  isize current_process_index() const { return current_process_; }

 private:
  friend class Clocked;

  // Called from ~Clocked in analysis builds: tombstones the registration
  // slot so the next Step() can diagnose instead of dereferencing a dead
  // element.
  void NotifyClockedDestroyed(Clocked* element);

#ifdef EMU_ANALYSIS
  // Step() with a monitor attached (or tombstoned elements to diagnose):
  // per-process bookkeeping lives here so the common path stays unchanged.
  void StepInstrumented();
#endif

  // Scheduling state for one process, struct-of-arrays style: the per-edge
  // sweep walks this table and only touches a coroutine frame to actually
  // resume it. Kept in sync with the promise announcement channel by
  // Reclassify().
  struct Slot {
    enum State : u8 {
      kRunnable = 0,  // resume on the next executed edge
      kSleeping,      // resume on the edge at wake_at
      kParked,        // resume on the first edge where wait_pred holds
      kDone,          // coroutine ran to completion
    };
    State state = kRunnable;
    Cycle wake_at = 0;
    bool (*wait_pred)(void*) = nullptr;
    void* wait_ctx = nullptr;
    u64 wait_epoch = kWaitEpochStale;
  };

  // Moves process `index`'s post-resume suspension announcement (promise
  // sleep/park fields) into its Slot and clears the promise.
  void Reclassify(usize index);

  // Resumes/polls every due process once (one edge's worth of process work).
  // `lazy` enables epoch-based parked-predicate skipping; `timed` wraps each
  // resume in a steady_clock pair (per-process wall attribution).
  void SweepProcesses(bool lazy, bool timed);

  // Commits the unconditional list then drains the dirty queue.
  void CommitEdge();

  // One edge's sweep + commit with phase accounting (profiling_mode_ !=
  // kOff): counts every edge, times one in sample_stride_ on average.
  void ProfiledSweepAndCommit(bool lazy);

  // Whether this entry is timed: always under kFull; under kSampled when
  // `countdown` runs out, which reloads it with the next gap.
  bool SampleDue(u64& countdown);

  // The next gap between timed entries under kSampled, uniform in
  // [stride - stride/2, stride + stride/2] from a host-side xorshift64 that
  // nothing in the simulation reads.
  u64 NextSampleGap();

  // QuiescentWindow with phase accounting; falls through to the plain scan
  // when profiling is off.
  Cycle ProfiledQuiescentWindow(Cycle budget);

  // The loop behind Run and RunUntil: executes or fast-forwards edges until
  // `end`, or until `done` (when non-null) holds. Returns whether it held.
  bool RunLoop(Cycle end, const std::function<bool()>* done);

  // Length of the quiescent window starting at now_ (0 = the next edge must
  // be executed), capped at `budget`.
  Cycle QuiescentWindow(Cycle budget);

  // Skips `cycles` edges in one jump (caller has proven the window
  // quiescent via QuiescentWindow).
  void FastForward(Cycle cycles);

  // Consumes forced wakes that have come due and bumps the wake epoch.
  void ConsumeForcedWakes() {
    bool any = false;
    while (!forced_wakes_.empty() && *forced_wakes_.begin() <= now_) {
      forced_wakes_.erase(forced_wakes_.begin());
      any = true;
    }
    if (any) {
      NotifyWake();
    }
  }

  struct NamedProcess {
    HwProcess process;
    std::string name;
  };

  struct ProcessStats {
    u64 resumes = 0;
    u64 cycles_awake = 0;
    u64 polls = 0;
    u64 wall_ns = 0;
  };

  // Declared first so it is destroyed last: coroutine frames allocated from
  // the arena are destroyed (handle.destroy()) when processes_ dies, which
  // must happen while their storage is still alive.
  BumpArena frame_arena_;

  u64 clock_hz_;
  Picoseconds cycle_period_ps_;
  Cycle now_ = 0;
  std::vector<NamedProcess> processes_;
  std::vector<Slot> sched_;  // parallel to processes_
  elab::Catalog catalog_;
  std::vector<Clocked*> clocked_;         // every registered element (master list)
  std::vector<Clocked*> always_commit_;   // subset committed on every edge
  std::vector<Clocked*> dirty_;           // self-announcing elements pending commit
  HazardMonitor* monitor_ = nullptr;
  isize current_process_ = -1;
  usize dead_clocked_ = 0;

  // Quiescence state.
  bool fast_path_ = true;
  // Set by Reclassify when the executed edge left a process runnable, and
  // cleared as each edge starts, so it never claims a runnable process that
  // is not there (RunLoop then skips the scan, which would return 0).
  bool edge_left_runnable_ = false;
  u64 wake_epoch_ = 0;
  std::multiset<Cycle> forced_wakes_;
  FaultRegistry* fault_registry_ = nullptr;
  EventScheduler* event_scheduler_ = nullptr;
  std::vector<EdgeObserver*> edge_observers_;

  // Profiler state. Counters (edges_run_ &c.) are always maintained; the
  // phase accumulators only move while profiling_mode_ != kOff.
  ProfilingMode profiling_mode_ = ProfilingMode::kOff;
  u64 sample_stride_ = kDefaultProfilingStride;
  u64 sample_rng_ = 0x9e3779b97f4a7c15ULL;       // xorshift64 state (nonzero)
  u64 edge_countdown_ = kDefaultProfilingStride;  // sampled-mode countdowns (edges / scans)
  u64 scan_countdown_ = kDefaultProfilingStride;
  u64 edges_timed_ = 0;
  PhaseProfile phase_resume_;
  PhaseProfile phase_commit_;
  PhaseProfile phase_scan_;
  PhaseProfile phase_fast_forward_;
  std::vector<ProcessStats> stats_;
  u64 edges_run_ = 0;
  u64 cycles_fast_forwarded_ = 0;
  u64 jumps_ = 0;
};

}  // namespace emu

#endif  // SRC_HDL_SIMULATOR_H_
