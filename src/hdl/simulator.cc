#include "src/hdl/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/analysis/hazard_monitor.h"
#include "src/core/metrics.h"
#include "src/fault/fault_registry.h"
#include "src/obs/trace_hooks.h"

namespace emu {

Clocked::~Clocked() {
#ifdef EMU_ANALYSIS
  if (analysis_owner_ != nullptr) {
    analysis_owner_->NotifyClockedDestroyed(this);
  }
#endif
}

Simulator::Simulator(u64 clock_hz) : clock_hz_(clock_hz) {
  assert(clock_hz > 0);
  cycle_period_ps_ = kPicosPerSecond / static_cast<Picoseconds>(clock_hz);
}

Simulator::~Simulator() {
#ifdef EMU_ANALYSIS
  // Surviving elements may be destroyed after us (lifetime rule): sever the
  // back-pointers so their destructors do not call into a dead Simulator.
  for (Clocked* element : clocked_) {
    if (element != nullptr) {
      element->analysis_owner_ = nullptr;
    }
  }
#endif
}

usize Simulator::AddProcess(HwProcess process, std::string name) {
  assert(process.Valid());
  const usize index = processes_.size();
  processes_.push_back(NamedProcess{std::move(process), std::move(name)});
  sched_.push_back(Slot{});
  stats_.push_back(ProcessStats{});
  return index;
}

void Simulator::RegisterClocked(Clocked* element) {
  assert(element != nullptr);
#ifdef EMU_ANALYSIS
  element->analysis_owner_ = this;
#endif
  clocked_.push_back(element);
}

void Simulator::UnregisterClocked(Clocked* element) {
#ifdef EMU_ANALYSIS
  if (element != nullptr) {
    element->analysis_owner_ = nullptr;
  }
#endif
  auto drop = [element](std::vector<Clocked*>& list) {
    list.erase(std::remove(list.begin(), list.end(), element), list.end());
  };
  drop(clocked_);
  drop(dirty_);
  if (element != nullptr) {
    element->commit_enqueued_ = false;
  }
}

void Simulator::NotifyClockedDestroyed(Clocked* element) {
  for (Clocked*& slot : clocked_) {
    if (slot == element) {
      slot = nullptr;
      ++dead_clocked_;
    }
  }
  // The commit queue is walked without null checks on the fast path; a
  // dying element must leave it immediately.
  dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), element), dirty_.end());
}

void Simulator::AttachEdgeObserver(EdgeObserver* observer) {
  assert(observer != nullptr);
  edge_observers_.push_back(observer);
}

void Simulator::DetachEdgeObserver(EdgeObserver* observer) {
  edge_observers_.erase(std::remove(edge_observers_.begin(), edge_observers_.end(), observer),
                        edge_observers_.end());
}

void Simulator::Reclassify(usize index) {
  Slot& slot = sched_[index];
  HwProcess& process = processes_[index].process;
  if (process.Done()) {
    slot.state = Slot::kDone;
    return;
  }
  auto& promise = process.promise();
  if (promise.wait_pred != nullptr) {
    slot.state = Slot::kParked;
    slot.wait_pred = promise.wait_pred;
    slot.wait_ctx = promise.wait_ctx;
    slot.wait_epoch = kWaitEpochStale;   // force at least one evaluation
    promise.wait_pred = nullptr;
    promise.wait_ctx = nullptr;
    return;
  }
  if (promise.sleep_cycles > 0) {
    // Suspended during the edge at now_; the old per-edge decrement resumed
    // it sleep_cycles edges after the next one.
    slot.state = Slot::kSleeping;
    slot.wake_at = now_ + 1 + promise.sleep_cycles;
    promise.sleep_cycles = 0;
    return;
  }
  slot.state = Slot::kRunnable;
  edge_due_ = true;
}

bool Simulator::PollParked(usize index) {
  Slot& slot = sched_[index];
  if (slot.wait_pred(slot.wait_ctx)) {
    return true;
  }
  slot.wait_epoch = wake_epoch_;
  ProcessStats& stats = stats_[index];
  ++stats.polls;
  ++stats.cycles_awake;
  return false;
}

namespace {

inline u64 ElapsedNs(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point stop) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
}

}  // namespace

void Simulator::SweepProcesses(bool lazy, bool timed) {
  const usize count = processes_.size();
  for (usize i = 0; i < count; ++i) {
    Slot& slot = sched_[i];
    if (slot.state == Slot::kDone) {
      continue;
    }
    if (slot.state == Slot::kSleeping) {
      if (slot.wake_at > now_) {
        continue;
      }
    } else if (slot.state == Slot::kParked) {
      if (lazy && slot.wait_epoch == wake_epoch_) {
        continue;  // no wake-tracked state changed since the last evaluation
      }
      if (!PollParked(i)) {
        continue;
      }
      ++stats_[i].polls;  // the true poll, booked here because it resumes
    }
    ProcessStats& stats = stats_[i];
    ++stats.resumes;
    ++stats.cycles_awake;
    HwProcess& process = processes_[i].process;
    if (timed) [[unlikely]] {
      const auto start = std::chrono::steady_clock::now();
      process.Resume();
      stats.wall_ns += ElapsedNs(start, std::chrono::steady_clock::now());
    } else {
      process.Resume();
    }
    Reclassify(i);
  }
}

u64 Simulator::NextSampleGap() {
  sample_rng_ ^= sample_rng_ << 13;
  sample_rng_ ^= sample_rng_ >> 7;
  sample_rng_ ^= sample_rng_ << 17;
  const u64 half = sample_stride_ / 2;
  return sample_stride_ - half + sample_rng_ % (2 * half + 1);
}

bool Simulator::SampleDue(u64& countdown) {
  if (profiling_mode_ == ProfilingMode::kFull) {
    return true;
  }
  if (--countdown > 0) {
    return false;
  }
  countdown = NextSampleGap();
  return true;
}

void Simulator::ProfiledSweepAndCommit(bool lazy) {
  ++phase_resume_.calls;
  ++phase_commit_.calls;
  if (!SampleDue(edge_countdown_)) {
    SweepProcesses(lazy, /*timed=*/false);
    CommitEdge();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  SweepProcesses(lazy, /*timed=*/true);
  const auto t1 = std::chrono::steady_clock::now();
  CommitEdge();
  const auto t2 = std::chrono::steady_clock::now();
  ++phase_resume_.timed_calls;
  phase_resume_.wall_ns += ElapsedNs(t0, t1);
  ++phase_commit_.timed_calls;
  phase_commit_.wall_ns += ElapsedNs(t1, t2);
  ++edges_timed_;
}

void Simulator::CommitEdge() {
  // Index loop: a Commit() that re-announces (none in the kernel do, but the
  // contract allows it) grows the queue mid-walk.
  for (usize i = 0; i < dirty_.size(); ++i) {
    Clocked* element = dirty_[i];
    element->commit_enqueued_ = false;
    element->Commit();
  }
  dirty_.clear();
}

void Simulator::Step() {
  // Armed fault callback targets sample once per edge, before processes run
  // (the tick at `now_` precedes the edge at `now_`, matching the chaos
  // harness's historical `registry.Tick(now); Run(1);` order).
  if (fault_registry_ != nullptr) [[unlikely]] {
    fault_registry_->Tick(now_);
  }
  if (!forced_wakes_.empty()) [[unlikely]] {
    ConsumeForcedWakes();
  }
  // Every due process resumes on this edge, and Reclassify sets the flag
  // again for each one that stays runnable.
  edge_due_ = false;
#ifdef EMU_ANALYSIS
  // Keep the uninstrumented path identical to the non-analysis build: with
  // no monitor attached (and no tombstoned elements) there is exactly one
  // extra branch per Step(), not one per process.
  if (monitor_ != nullptr || dead_clocked_ > 0) [[unlikely]] {
    StepInstrumented();
    return;
  }
#endif
  // Epoch-lazy parked-predicate evaluation is only an optimization shortcut;
  // with the fast path off every parked predicate is evaluated on every
  // edge, which is the reference semantics.
  if (profiling_mode_ != ProfilingMode::kOff) [[unlikely]] {
    ProfiledSweepAndCommit(/*lazy=*/fast_path_);
  } else {
    SweepProcesses(/*lazy=*/fast_path_, /*timed=*/false);
    CommitEdge();
  }
  ++now_;
  ++edges_run_;
  if (!edge_observers_.empty()) [[unlikely]] {
    for (EdgeObserver* observer : edge_observers_) {
      observer->OnEdge(now_);
    }
  }
}

#ifdef EMU_ANALYSIS
void Simulator::StepInstrumented() {
  if (dead_clocked_ > 0) {
    // The lifetime rule (see the header) was violated: a registered element
    // died and Step() ran anyway. With a monitor this is a report; without
    // one it is a hard stop — the non-analysis build would be corrupting
    // freed memory right here.
    if (monitor_ != nullptr) {
      monitor_->OnPostMortemStep(dead_clocked_);
    } else {
      std::fprintf(stderr,
                   "emu: fatal: Simulator::Step() after %zu registered Clocked element(s) "
                   "were destroyed (lifetime rule in src/hdl/simulator.h)\n",
                   dead_clocked_);
      std::abort();
    }
  }
  for (usize i = 0; i < processes_.size(); ++i) {
    current_process_ = static_cast<isize>(i);
    if (monitor_ != nullptr) {
      monitor_->OnProcessResume(i, processes_[i].name);
    }
    // Exact semantics, no scheduler bookkeeping: parked predicates are
    // evaluated on every edge (without freshening the lazy-skip epoch — the
    // instrumented path never converts monitor observation into fast-path
    // state), so the monitor observes everything a per-edge testbench would.
    Slot& slot = sched_[i];
    if (slot.state == Slot::kDone) {
      continue;
    }
    if (slot.state == Slot::kSleeping) {
      if (slot.wake_at > now_) {
        continue;
      }
    } else if (slot.state == Slot::kParked) {
      if (!slot.wait_pred(slot.wait_ctx)) {
        continue;
      }
    }
    processes_[i].process.Resume();
    Reclassify(i);
  }
  current_process_ = -1;
  // Commit everything registered (null-checked: slots may be tombstoned),
  // in registration order — the dirty queue is a fast-path optimization the
  // instrumented path subsumes.
  for (Clocked* element : clocked_) {
    if (element != nullptr) {
      element->Commit();
    }
  }
  for (Clocked* element : dirty_) {
    element->commit_enqueued_ = false;
  }
  dirty_.clear();
  ++now_;
  ++edges_run_;
  if (!edge_observers_.empty()) [[unlikely]] {
    for (EdgeObserver* observer : edge_observers_) {
      observer->OnEdge(now_);
    }
  }
}
#endif

Cycle Simulator::QuiescentWindow(Cycle budget) {
  if (!fast_path_ || !edge_observers_.empty()) {
    return 0;
  }
#ifdef EMU_ANALYSIS
  if (monitor_ != nullptr || dead_clocked_ > 0) {
    return 0;
  }
#endif
  if (fault_registry_ != nullptr) {
    const u64 demand = fault_registry_->NextTickDemand(now_);
    if (demand <= now_) {
      return 0;
    }
    if (demand != FaultRegistry::kNeverDemands) {
      budget = std::min(budget, static_cast<Cycle>(demand - now_));
    }
  }
  if (!forced_wakes_.empty()) {
    const Cycle first = *forced_wakes_.begin();
    if (first <= now_) {
      return 0;
    }
    budget = std::min(budget, first - now_);
  }
  // Buffered writes (testbench code mutating a Reg/FIFO/BRAM/CAM between Run
  // calls, or a process's writes from the edge it went to sleep on) need a
  // real edge to commit before time may jump. Every mutator announces its
  // element on the dirty queue, and the commit edge commits only that queue,
  // so the queue alone says whether a commit is pending.
  if (!dirty_.empty()) {
    return 0;
  }
  Cycle window = budget;
  bool to_wake = false;  // the window ends at a sleeper's wake
  for (usize i = 0; i < sched_.size(); ++i) {
    const Slot& slot = sched_[i];
    switch (slot.state) {
      case Slot::kDone:
        continue;
      case Slot::kSleeping:
        if (slot.wake_at <= now_) {
          return 0;  // due: the next edge must execute
        }
        if (slot.wake_at - now_ <= window) {
          window = slot.wake_at - now_;
          to_wake = true;
        }
        continue;
      case Slot::kParked:
        // A fresh predicate provably sleeps through any window. A stale one
        // is polled here, as the edge's sweep would poll it: no process
        // ahead of it is due, so nothing runs before its poll on that edge.
        // A false poll is booked and joins the jump; a true one is left
        // unbooked for the edge, which polls it again and resumes it.
        if (slot.wait_epoch != wake_epoch_ && PollParked(i)) {
          return 0;
        }
        continue;
      case Slot::kRunnable:
        return 0;
    }
  }
  // A jump that ends at a sleeper's wake makes the edge there due.
  edge_due_ = to_wake;
  return window;
}

Cycle Simulator::ProfiledQuiescentWindow(Cycle budget) {
  if (profiling_mode_ == ProfilingMode::kOff) [[likely]] {
    return QuiescentWindow(budget);
  }
  ++phase_scan_.calls;
  if (!SampleDue(scan_countdown_)) {
    return QuiescentWindow(budget);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Cycle window = QuiescentWindow(budget);
  ++phase_scan_.timed_calls;
  phase_scan_.wall_ns += ElapsedNs(t0, std::chrono::steady_clock::now());
  return window;
}

void Simulator::AttachFaultRegistry(FaultRegistry* registry) {
  fault_registry_ = registry;
  if (registry != nullptr) {
    registry->set_trace_tick_period_ps(cycle_period_ps_);
  }
}

void Simulator::FastForward(Cycle cycles) {
  assert(cycles > 0);
  if (profiling_mode_ != ProfilingMode::kOff) [[unlikely]] {
    // Jumps are rare relative to edges: always time them when profiling.
    const auto t0 = std::chrono::steady_clock::now();
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      obs::EmitComplete(tb, "sim.quiescent", NowPs(),
                        static_cast<Picoseconds>(cycles) * cycle_period_ps_);
    }
    now_ += cycles;
    cycles_fast_forwarded_ += cycles;
    ++jumps_;
    if (fault_registry_ != nullptr) {
      fault_registry_->NoteSkippedTicks(cycles);
    }
    ++phase_fast_forward_.calls;
    ++phase_fast_forward_.timed_calls;
    phase_fast_forward_.wall_ns += ElapsedNs(t0, std::chrono::steady_clock::now());
    return;
  }
  // The jump itself is an observable worth tracing: a complete span covering
  // the skipped window shows exactly where the run was quiescent.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitComplete(tb, "sim.quiescent", NowPs(),
                      static_cast<Picoseconds>(cycles) * cycle_period_ps_);
  }
  // Sleep wake-ups are absolute cycles, so the jump is O(1): QuiescentWindow
  // bounded it by the earliest wake_at, and no slot state needs touching.
  now_ += cycles;
  cycles_fast_forwarded_ += cycles;
  ++jumps_;
  if (fault_registry_ != nullptr) {
    // Armed callback targets that allowed the jump still saw one injection
    // opportunity per skipped tick; keep their books identical to per-edge
    // sampling.
    fault_registry_->NoteSkippedTicks(cycles);
  }
}

bool Simulator::RunLoop(Cycle end, const std::function<bool()>* done) {
  while (now_ < end) {
    // `done` is a pure function of simulation state (header contract), so it
    // cannot flip inside a quiescent window: checking once per executed edge
    // or jump is exactly equivalent to checking every cycle.
    if (done != nullptr && (*done)()) {
      return true;
    }
    // A process the last edge left runnable, or a sleeper the last jump
    // landed on, makes the next edge due: the scan would return 0, so skip it.
    if (!edge_due_) {
      const Cycle window = ProfiledQuiescentWindow(end - now_);
      if (window > 0) {
        FastForward(window);
        continue;
      }
    }
    Step();
  }
  return done != nullptr && (*done)();
}

void Simulator::Run(Cycle cycles) { RunLoop(now_ + cycles, nullptr); }

bool Simulator::RunUntil(const std::function<bool()>& done, Cycle limit) {
  return RunLoop(now_ + limit, &done);
}

usize Simulator::live_process_count() const {
  usize count = 0;
  for (const auto& entry : processes_) {
    if (!entry.process.Done()) {
      ++count;
    }
  }
  return count;
}

SimProfile Simulator::ProfileReport() const {
  SimProfile profile;
  profile.profiling_enabled = profiling_mode_ != ProfilingMode::kOff;
  profile.mode = profiling_mode_;
  profile.sample_stride = sample_stride_;
  profile.edges_run = edges_run_;
  profile.cycles_fast_forwarded = cycles_fast_forwarded_;
  profile.jumps = jumps_;
  profile.edges_timed = edges_timed_;
  profile.resume_dispatch = phase_resume_;
  profile.commit_sweep = phase_commit_;
  profile.quiescence_scan = phase_scan_;
  profile.fast_forward = phase_fast_forward_;
  profile.processes.reserve(processes_.size());
  for (usize i = 0; i < processes_.size(); ++i) {
    ProcessProfile entry;
    entry.name = processes_[i].name;
    entry.resumes = stats_[i].resumes;
    entry.cycles_awake = stats_[i].cycles_awake;
    entry.polls = stats_[i].polls;
    entry.wall_ns = stats_[i].wall_ns;
    profile.processes.push_back(std::move(entry));
  }
  return profile;
}

void Simulator::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".edges_run", &edges_run_);
  metrics.Register(prefix + ".cycles_fast_forwarded", &cycles_fast_forwarded_);
  metrics.Register(prefix + ".jumps", &jumps_);
  metrics.RegisterGauge(prefix + ".live_processes",
                        [this] { return static_cast<u64>(live_process_count()); });
}

}  // namespace emu
