// Conservative parallel execution of a sharded topology (emu-par).
//
// A topology is partitioned into shards — one EventScheduler (and the hosts
// or service nodes it drives) per shard. Shards share no simulation state;
// the only coupling is the inter-shard links, whose minimum transit time
// (serialization floor + propagation delay) is a hard lower bound on how
// soon one shard's actions can become visible to another. That bound is the
// classic conservative-PDES lookahead: in each epoch every shard may run all
// events strictly before its inbound horizon
//
//   lb(r)      = next_event_time(r), then relaxed through every cut edge
//                lb(to) = min(lb(to), lb(from) + min_transit(from->to))
//                to a fixpoint (batched Chandy-Misra null messages)
//   horizon(s) = min over inbound links l from shard r of
//                lb(r) + min_transit(l)
//
// without ever receiving a frame "from the past". The relaxation step is
// what makes an IDLE shard safe: a shard with an empty queue is not silent
// for the epoch — a frame arriving mid-epoch can wake it and make it send
// (a hub between chatty hosts is the canonical case) — so its earliest
// possible action is bounded through its own inbound edges, not assumed
// infinite. Positive lookaheads guarantee both convergence of the fixpoint
// (<= |shards| sweeps) and forward progress of at least the minimum
// lookahead per epoch. Cross-shard frames travel through per-shard inboxes,
// stamped with their absolute arrival time, the routed direction's id, and
// a per-direction FIFO sequence assigned by the sender. A shard's senders
// and its drain belong to one component, which one thread runs at a time,
// so an inbox needs no lock. Between epochs the runner drains each inbox in
// (arrival, link, seq) order — a canonical order independent of the order
// the senders ran in — so the receiving scheduler assigns the same
// tie-break sequence numbers every run.
//
// Components: shards joined, directly or through other shards, by routed
// link directions form one link component (a star and its hosts, a chain
// around its hub, one node/client pair of a cluster). No frame ever crosses
// two components, so each one plans and runs its own epochs: the inbox
// drain, the bound relaxation and the horizons above all range over one
// component. The runner finds the components with a union-find over its
// cuts once per topology change.
//
// Determinism: a shard's epoch depends only on its own queue, its horizon,
// and its drained inbox, all of which are fixed when its component's plan
// is published. Which OS thread runs a shard's epoch, and when other
// components run theirs, therefore cannot affect results — Run(threads=N)
// is bit-exact against Run(threads=1). Each ServiceNode's embedded
// Simulator keeps its quiescence fast-forward: idle stretches inside a shard
// are jumped, not stepped.
//
// Epoch execution: a component runs its epochs back to back on one thread,
// its shards in index order, one slice of whole epochs at a time. That
// thread is the calling thread, unless a run starts with two or more busy
// components and threads > 1: then Run() starts one thread per busy
// component beyond the first, up to threads - 1, and they and the calling
// thread take components from one shared queue, run a slice of each and
// queue it again. Run() joins them before it returns, so a queued run
// costs one start and one join per thread, and no barrier per epoch; no
// thread outlives a Run(). The queue's mutex orders a component's
// hand-over between threads, and the thread start and join order it
// against the calling thread. Every way a component is run executes the
// same epoch schedule, so the thread count changes which thread runs a
// shard, never what it computes.
#ifndef SRC_SIM_PARALLEL_RUNNER_H_
#define SRC_SIM_PARALLEL_RUNNER_H_

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"

namespace emu {

namespace obs {
class RunnerPulse;
}  // namespace obs

struct ParallelRunOptions {
  // OS threads, including the calling thread. Clamped to the shard count.
  // Only a run that starts with k >= 2 busy link components uses more than
  // one: it starts min(threads, k) - 1 threads beside the calling thread
  // and joins them before Run() returns. Any other run, and every run at 1
  // (the bit-exact serial reference), stays on the calling thread and
  // starts no thread.
  usize threads = 1;
  // Event budget. It is split across the components that have work when the
  // run starts, in proportion to their shard counts (each gets at least
  // one event). A component checks its share at its own epoch boundaries
  // and never cuts short an epoch with a finite horizon, so a run may
  // overshoot by one epoch per component, and chunked runs execute the
  // same epochs as one run. Only a shard no other shard can reach (an
  // unbounded horizon) stops mid-epoch, at its component's share.
  usize max_events = 10'000'000;
};

// One registered cross-shard link direction: the shard boundary it crosses
// and its conservative lookahead. Recorded by ConnectDirection for the
// static SHARDCUT check (src/analysis/elab), which reports a zero-lookahead
// cut in a design without building its runner.
struct ShardCut {
  usize from = 0;
  usize to = 0;
  u64 link_id = 0;
  Picoseconds lookahead = 0;
};

class ParallelRunner {
 public:
  ParallelRunner();
  // Touches no shard: the schedulers may already be gone (TopologyBuilder
  // destroys them first).
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  // Registers a shard around `scheduler` (which must outlive the runner) and
  // returns its shard id.
  usize AddShard(EventScheduler& scheduler);

  // Routes `link`'s `to_b` direction across the shard boundary from `from`
  // (where the sender lives) into `to` (where the receiving end's callbacks
  // run). The shards must be distinct registered shards and the link's
  // transit floor must be positive — zero lookahead admits no conservative
  // window. A violation prints `emu: fatal: ...` and aborts, in every build
  // type. Per-direction impairment (Link::EnableImpairment) composes.
  void ConnectDirection(Link& link, bool to_b, usize from, usize to);

  // Runs all shards to quiescence (or the event budget); returns the number
  // of events executed. Identical results for any `threads` value. Every
  // thread a call starts is joined before it returns.
  u64 Run(const ParallelRunOptions& opts = {});

  usize shard_count() const { return shards_.size(); }
  // Component plans over this runner's lifetime (for tests/bench): each
  // epoch of each component counts once.
  u64 epochs() const { return epochs_; }
  // Every registered cross-shard link direction, for static validation.
  const std::vector<ShardCut>& cuts() const { return cuts_; }

  // Attaches a wall-clock epoch recorder (emu-pulse; nullptr detaches). The
  // pulse must outlive the attachment. Recording is pure observation of HOST
  // time: it never touches simulation state, so attached or not, results —
  // including the deterministic trace — are bit-identical.
  void AttachPulse(obs::RunnerPulse* pulse) { pulse_ = pulse; }
  obs::RunnerPulse* pulse() const { return pulse_; }

  // Cumulative conservative-plan statistics (maintained with or without a
  // pulse attached; deterministic functions of the workload).
  u64 relax_sweeps() const { return relax_sweeps_; }
  u64 null_message_relaxations() const { return null_message_relaxations_; }
  u64 frames_drained() const { return frames_drained_; }

 private:
  struct PendingDelivery {
    Picoseconds arrival = 0;
    u64 link_id = 0;
    u64 seq = 0;
    Link* link = nullptr;
    bool to_b = true;
    Packet frame;
  };
  struct InboundEdge {
    usize from = 0;
    usize from_local = 0;  // the sender's position in its component
    Picoseconds lookahead = 0;
  };
  struct Shard {
    usize index = 0;
    usize local = 0;  // position in its component's shard list
    EventScheduler* scheduler = nullptr;
    std::vector<InboundEdge> inbound;
    std::vector<PendingDelivery> inbox;
    // Per-epoch plan, written by the plan and read when the shard's epoch
    // runs, on the thread that runs its component.
    Picoseconds horizon = 0;
    usize budget = 0;
    usize epoch_executed = 0;
    // Wall stamps of this shard's epoch work (ns since RunnerPulse base),
    // written and recorded by the thread that runs its component. Only
    // maintained while a pulse is attached.
    u64 work_begin_ns = 0;
    u64 work_end_ns = 0;
  };
  // One link component: its shards, plan buffers, budget and the plan
  // statistics and pulse records not yet folded into the runner's totals.
  struct Component;

  // Rebuilds components_ from cuts_ (union-find) after a topology change.
  void FindComponents();

  // Drains the component's inboxes, bounds each shard's earliest action and
  // computes its horizons and budgets. Returns false, planning nothing, when
  // the component is quiescent.
  bool PlanEpoch(Component& comp);
  void RunShardEpoch(Shard& shard);
  // Sums the closed epoch's events into the component and, with a pulse
  // attached, stamps one record per shard (`epoch_end_ns` closes it).
  void CloseEpoch(Component& comp, u64 epoch_end_ns);
  // Adds the component's plan statistics to the runner's totals and flushes
  // its pulse records (calling thread only, between slices or after the
  // join).
  void Fold(Component& comp, bool parallel);

  // Runs a slice of whole epochs of `comp`, its shards in index order;
  // returns false once the component is quiescent or has used its share.
  bool RunSlice(Component& comp);
  // A queued run: every thread takes components off queue_ and runs a
  // slice of each until the queue is empty.
  void RunQueue();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardCut> cuts_;
  std::vector<std::unique_ptr<Component>> components_;
  bool components_stale_ = false;
  u64 next_link_id_ = 0;
  u64 epochs_ = 0;
  u64 relax_sweeps_ = 0;
  u64 null_message_relaxations_ = 0;
  u64 frames_drained_ = 0;
  obs::RunnerPulse* pulse_ = nullptr;

  // The components waiting for a thread in a queued run.
  std::mutex queue_mu_;
  std::deque<Component*> queue_;
};

}  // namespace emu

#endif  // SRC_SIM_PARALLEL_RUNNER_H_
