// emu-pulse: host-performance (wall-clock) observability, kept strictly
// apart from the deterministic trace (src/obs/trace.h).
//
// The deterministic trace answers "what did the emulated system do, at which
// emulated picosecond" — it is byte-compared across thread counts and
// replays, so nothing wall-clock may ever leak into it. emu-pulse answers
// the orthogonal question "where did the HOST spend its time running the
// emulation": kernel phase attribution (Simulator::ProfileReport), and
// per-shard/per-epoch records from the conservative parallel runner
// (planned horizon, events executed, barrier-wait wall ns, null-message
// relaxation counts — the data the emu-par v2 barrier fix aims at).
//
// Everything here exports to SEPARATE artifacts (a summary JSON and a
// wall-clock Chrome trace), which is what keeps the byte-compare guarantee
// intact by construction: the deterministic exporters never see this data.
#ifndef SRC_OBS_PULSE_H_
#define SRC_OBS_PULSE_H_

#include <chrono>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/hdl/simulator.h"

namespace emu::obs {

// --- Kernel phase profile export -------------------------------------------

// JSON export of a SimProfile: scalar counters, the four kernel phases
// (calls / timed_calls / wall_ns / estimated_total_ns), and the per-process
// table. `profiling_enabled` is always present so a consumer can tell an
// all-zero report from a disabled one.
std::string SimProfileJson(const SimProfile& profile);

// Human-readable phase + per-process table (emu_scope prints this when the
// report is populated()). Empty string when the profile carries no wall
// data — callers need not re-check populated().
std::string FormatSimProfileTable(const SimProfile& profile);

// --- Parallel-runner epoch observability ------------------------------------

// One PlanEpoch execution: one epoch of one link component. Planned on the
// thread that runs the component, recorded by the calling thread.
struct PlanRecord {
  u64 epoch = 0;           // 1-based component-plan ordinal of the runner
  u64 begin_ns = 0;        // wall offset from BeginRun
  u64 wall_ns = 0;         // time inside PlanEpoch (drain + relax + horizons)
  u64 relax_sweeps = 0;    // fixpoint sweeps over the cut edges
  u64 relaxations = 0;     // lower-bound relaxations applied (batched null messages)
  u64 frames_drained = 0;  // cross-shard frames delivered out of the inboxes
};

// One shard's slice of one epoch. barrier_wait_ns is the wall time between
// the shard's work finishing and the epoch closing. A component's shards
// run in sequence on one thread, so it is always sequential skew: the time
// spent running the component's shards after this one.
struct ShardEpochRecord {
  u64 epoch = 0;
  u32 shard = 0;
  Picoseconds horizon_ps = -1;  // planned conservative horizon; -1 = unbounded
  u64 executed = 0;     // events the shard ran this epoch
  u64 work_begin_ns = 0;
  u64 work_end_ns = 0;
  u64 barrier_wait_ns = 0;
};

// Whole-run plan totals (never dropped, even when the per-epoch ring caps
// out — the same exactness rule ShardAggregate follows).
struct PlanAggregate {
  u64 wall_ns = 0;
  u64 relax_sweeps = 0;
  u64 relaxations = 0;
  u64 frames_drained = 0;
};

// Whole-run totals per shard (never dropped, even when the per-epoch ring
// caps out).
struct ShardAggregate {
  u64 epochs = 0;
  u64 executed = 0;
  u64 work_ns = 0;
  u64 barrier_wait_ns = 0;
  u64 max_barrier_wait_ns = 0;
};

// Collects wall-clock epoch records from a ParallelRunner (AttachPulse).
// Recording discipline: BeginRun / RecordPlan / RecordShardEpoch /
// RecordEpochMode / EndRun are calling-thread-only calls (the
// single-threaded sections between epochs); NowNs() is safe from the
// threads a queued run starts (it only reads the base stamp set in
// BeginRun, before they start).
//
// Detail records are bounded: past `max_records` per-epoch entries the
// recorder keeps the prefix and counts the rest in dropped_records(), while
// the per-shard aggregates keep accumulating — totals are always exact.
class RunnerPulse {
 public:
  explicit RunnerPulse(usize max_records = 1u << 14) : max_records_(max_records) {}

  void BeginRun(usize shard_count, usize threads);
  void EndRun(u64 total_events);
  u64 NowNs() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - base_)
                                .count());
  }

  void RecordPlan(const PlanRecord& record);
  void RecordShardEpoch(const ShardEpochRecord& record);
  // Counts one closed epoch as inline (its component ran on the calling
  // thread alone) or parallel (a run with two or more busy components
  // queued it, threads > 1). The split follows from the thread count and
  // the busy components, not from host timing, but it differs across
  // thread counts, so no digest or cross-thread-count comparison may
  // include it.
  void RecordEpochMode(bool parallel);

  usize shard_count() const { return shard_count_; }
  usize threads() const { return threads_; }
  // Epochs planned since BeginRun; each is counted once more as inline or
  // parallel when it closes.
  u64 epochs() const { return epochs_; }
  u64 inline_epochs() const { return inline_epochs_; }
  u64 parallel_epochs() const { return parallel_epochs_; }
  u64 total_events() const { return total_events_; }
  u64 run_wall_ns() const { return run_wall_ns_; }
  u64 dropped_records() const { return dropped_records_; }
  const std::vector<PlanRecord>& plans() const { return plans_; }
  const PlanAggregate& plan_aggregate() const { return plan_aggregate_; }
  const std::vector<ShardEpochRecord>& shard_epochs() const { return shard_epochs_; }
  const std::vector<ShardAggregate>& shard_aggregates() const { return aggregates_; }

  // Summary JSON: run-level totals (epochs split into inline and parallel
  // ones), per-shard aggregates (executed, work, barrier wait, max wait),
  // plan totals (sweeps, relaxations, drained), and the bounded per-epoch
  // detail arrays.
  std::string SummaryJson() const;

  // Wall-clock Chrome trace: per-shard rows of "shard.work" + "barrier.wait"
  // complete spans and a coordinator row of "epoch.plan" spans, timestamped
  // in HOST time. A separate artifact by design — never merged into the
  // deterministic trace, so the byte-compare never sees it.
  std::string WallClockTraceJson() const;

  bool WriteSummaryJson(const std::string& path) const;
  bool WriteWallClockTraceJson(const std::string& path) const;

 private:
  usize max_records_;
  usize shard_count_ = 0;
  usize threads_ = 0;
  u64 epochs_ = 0;
  u64 inline_epochs_ = 0;
  u64 parallel_epochs_ = 0;
  u64 total_events_ = 0;
  u64 run_wall_ns_ = 0;
  u64 dropped_records_ = 0;
  std::chrono::steady_clock::time_point base_{};
  PlanAggregate plan_aggregate_;
  std::vector<PlanRecord> plans_;
  std::vector<ShardEpochRecord> shard_epochs_;
  std::vector<ShardAggregate> aggregates_;
};

}  // namespace emu::obs

#endif  // SRC_OBS_PULSE_H_
