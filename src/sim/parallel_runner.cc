#include "src/sim/parallel_runner.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>

#include "src/common/fatal.h"
#include "src/obs/pulse.h"
#include "src/obs/trace.h"

namespace emu {
namespace {

constexpr Picoseconds kNever = std::numeric_limits<Picoseconds>::max();

// A thread in a queued run holds a component for whole epochs until it has
// run this many events, then queues it again: long enough that the queue
// lock and the hand-over cost nothing against the slice (~3 ms of
// memcached-cluster work on a 4-vCPU Xeon), short enough that three
// threads sharing four components finish within one slice of each other.
constexpr u64 kSliceEvents = 4'096;

[[noreturn]] void CutFatal(u64 link_id, usize from, usize to, const char* what) {
  Fatal("ParallelRunner::ConnectDirection", "link %llu from shard %zu to shard %zu: %s",
        static_cast<unsigned long long>(link_id), from, to, what);
}

}  // namespace

struct ParallelRunner::Component {
  std::vector<usize> shards;  // ascending shard indices
  // Plan buffers, reused every epoch; lb is indexed by position in `shards`.
  std::vector<PendingDelivery> drain;
  std::vector<Picoseconds> lb;
  // This run's share of the event budget and the events run against it.
  u64 share = 0;
  u64 executed = 0;
  // Not yet folded into the runner (Fold).
  u64 epochs = 0;
  u64 relax_sweeps = 0;
  u64 relaxations = 0;
  u64 frames_drained = 0;
  std::vector<obs::PlanRecord> plans;              // one per epoch
  std::vector<obs::ShardEpochRecord> shard_epochs;  // shards.size() per epoch
};

ParallelRunner::ParallelRunner() = default;

ParallelRunner::~ParallelRunner() = default;

usize ParallelRunner::AddShard(EventScheduler& scheduler) {
  auto shard = std::make_unique<Shard>();
  shard->index = shards_.size();
  shard->scheduler = &scheduler;
  shards_.push_back(std::move(shard));
  components_stale_ = true;
  return shards_.size() - 1;
}

void ParallelRunner::ConnectDirection(Link& link, bool to_b, usize from, usize to) {
  const u64 link_id = next_link_id_;
  if (from >= shards_.size() || to >= shards_.size()) {
    CutFatal(link_id, from, to, "shard not registered");
  }
  if (from == to) {
    CutFatal(link_id, from, to, "a link direction within one shard needs no routing");
  }
  const Picoseconds lookahead = link.MinTransitPs();
  if (lookahead <= 0) {
    CutFatal(link_id, from, to, "zero-lookahead link admits no conservative window");
  }
  ++next_link_id_;
  cuts_.push_back(ShardCut{from, to, link_id, lookahead});
  components_stale_ = true;
  Shard& receiver = *shards_[to];
  receiver.inbound.push_back(InboundEdge{.from = from, .lookahead = lookahead});
  link.RouteRemote(to_b, *shards_[from]->scheduler, link_id,
                   [&receiver, &link, to_b](Link::RemoteFrame rf) {
                     receiver.inbox.push_back(PendingDelivery{
                         rf.arrival, rf.link_id, rf.seq, &link, to_b, std::move(rf.frame)});
                   });
}

void ParallelRunner::FindComponents() {
  // Union-find over the cuts; the root of a set is its lowest shard, so
  // components come out ordered by their first shard.
  std::vector<usize> parent(shards_.size());
  std::iota(parent.begin(), parent.end(), usize{0});
  const auto find = [&parent](usize s) {
    while (parent[s] != s) {
      s = parent[s] = parent[parent[s]];
    }
    return s;
  };
  for (const ShardCut& cut : cuts_) {
    const usize a = find(cut.from);
    const usize b = find(cut.to);
    parent[std::max(a, b)] = std::min(a, b);
  }
  components_.clear();
  std::vector<usize> slot(shards_.size(), 0);
  for (usize s = 0; s < shards_.size(); ++s) {
    const usize root = find(s);
    if (root == s) {
      slot[s] = components_.size();
      components_.push_back(std::make_unique<Component>());
    }
    Component& comp = *components_[slot[root]];
    shards_[s]->local = comp.shards.size();
    comp.shards.push_back(s);
  }
  for (auto& shard : shards_) {
    for (InboundEdge& edge : shard->inbound) {
      edge.from_local = shards_[edge.from]->local;
    }
  }
  components_stale_ = false;
}

bool ParallelRunner::PlanEpoch(Component& comp) {
  const u64 plan_begin_ns = pulse_ != nullptr ? pulse_->NowNs() : 0;
  u64 drained = 0;
  // Drain every inbox in canonical (arrival, link, seq) order so the
  // receiving scheduler's tie-break sequence numbers are independent of the
  // order the senders pushed the frames.
  for (const usize index : comp.shards) {
    Shard& shard = *shards_[index];
    if (shard.inbox.empty()) {
      continue;
    }
    comp.drain.swap(shard.inbox);
    std::sort(comp.drain.begin(), comp.drain.end(),
              [](const PendingDelivery& a, const PendingDelivery& b) {
                return std::tie(a.arrival, a.link_id, a.seq) <
                       std::tie(b.arrival, b.link_id, b.seq);
              });
    drained += comp.drain.size();
    for (PendingDelivery& delivery : comp.drain) {
      shard.scheduler->At(delivery.arrival,
                          [link = delivery.link, to_b = delivery.to_b,
                           frame = std::move(delivery.frame)]() mutable {
                            link->CompleteRemote(std::move(frame), to_b);
                          });
    }
    comp.drain.clear();
  }
  comp.frames_drained += drained;

  const usize n = comp.shards.size();
  std::vector<Picoseconds>& lb = comp.lb;
  lb.assign(n, kNever);
  bool any_pending = false;
  for (usize i = 0; i < n; ++i) {
    const EventScheduler& scheduler = *shards_[comp.shards[i]]->scheduler;
    if (!scheduler.Empty()) {
      lb[i] = scheduler.NextEventTime();
      any_pending = true;
    }
  }
  if (!any_pending) {
    return false;
  }
  // Transitive earliest-action bound. A shard with an empty queue is NOT
  // silent for the epoch: a frame arriving mid-epoch can wake it and make it
  // send (a hub shard between chatty hosts is the canonical case). Relax the
  // next-event times through the cut edges to a fixpoint — batched
  // Chandy-Misra null messages; positive lookaheads guarantee convergence in
  // at most |shards| sweeps — so lb[i] bounds the earliest time shard i can
  // execute ANY event this epoch, woken or not.
  u64 sweeps = 0;
  u64 relaxations = 0;
  for (bool changed = true; changed;) {
    changed = false;
    ++sweeps;
    for (usize i = 0; i < n; ++i) {
      for (const InboundEdge& edge : shards_[comp.shards[i]]->inbound) {
        if (lb[edge.from_local] == kNever) {
          continue;
        }
        const Picoseconds candidate = lb[edge.from_local] + edge.lookahead;
        if (candidate < lb[i]) {
          lb[i] = candidate;
          changed = true;
          ++relaxations;
        }
      }
    }
  }
  comp.relax_sweeps += sweeps;
  comp.relaxations += relaxations;
  // At least the component's earliest shard is busy: every horizon lies a
  // positive lookahead past some next-event time. A finite horizon bounds
  // the epoch by itself, so only an unbounded one takes the budget left.
  const usize left = static_cast<usize>(comp.share - comp.executed);
  for (usize i = 0; i < n; ++i) {
    Shard& shard = *shards_[comp.shards[i]];
    Picoseconds horizon = kNever;
    for (const InboundEdge& edge : shard.inbound) {
      if (lb[edge.from_local] == kNever) {
        continue;  // nothing anywhere can ever reach this sender: truly silent
      }
      horizon = std::min(horizon, lb[edge.from_local] + edge.lookahead);
    }
    shard.horizon = horizon;
    shard.budget = horizon == kNever ? left : std::numeric_limits<usize>::max();
    shard.epoch_executed = 0;
  }
  ++comp.epochs;
  if (pulse_ != nullptr) {
    obs::PlanRecord record;
    record.begin_ns = plan_begin_ns;
    record.wall_ns = pulse_->NowNs() - plan_begin_ns;
    record.relax_sweeps = sweeps;
    record.relaxations = relaxations;
    record.frames_drained = drained;
    comp.plans.push_back(record);
  }
  return true;
}

void ParallelRunner::CloseEpoch(Component& comp, u64 epoch_end_ns) {
  for (const usize index : comp.shards) {
    const Shard& shard = *shards_[index];
    comp.executed += shard.epoch_executed;
    if (pulse_ == nullptr) {
      continue;
    }
    obs::ShardEpochRecord record;
    record.shard = static_cast<u32>(shard.index);
    record.horizon_ps = shard.horizon == kNever ? -1 : shard.horizon;
    record.executed = shard.epoch_executed;
    record.work_begin_ns = shard.work_begin_ns;
    record.work_end_ns = shard.work_end_ns;
    record.barrier_wait_ns =
        epoch_end_ns > shard.work_end_ns ? epoch_end_ns - shard.work_end_ns : 0;
    comp.shard_epochs.push_back(record);
  }
}

void ParallelRunner::Fold(Component& comp, bool parallel) {
  if (pulse_ != nullptr) {
    // Epoch ordinals are assigned here, in fold order: component by
    // component.
    const usize n = comp.shards.size();
    for (usize e = 0; e < comp.plans.size(); ++e) {
      obs::PlanRecord& plan = comp.plans[e];
      plan.epoch = epochs_ + e + 1;
      pulse_->RecordPlan(plan);
      pulse_->RecordEpochMode(parallel);
      for (usize i = e * n; i < (e + 1) * n; ++i) {
        comp.shard_epochs[i].epoch = plan.epoch;
        pulse_->RecordShardEpoch(comp.shard_epochs[i]);
      }
    }
  }
  comp.plans.clear();
  comp.shard_epochs.clear();
  epochs_ += std::exchange(comp.epochs, 0);
  relax_sweeps_ += std::exchange(comp.relax_sweeps, 0);
  null_message_relaxations_ += std::exchange(comp.relaxations, 0);
  frames_drained_ += std::exchange(comp.frames_drained, 0);
}

void ParallelRunner::RunShardEpoch(Shard& shard) {
  // Bind the shard's trace buffer to whichever thread runs this epoch:
  // events land in per-shard buffers regardless of the worker interleaving,
  // which is what makes the merged trace independent of the thread count.
  obs::TraceSession* session = obs::TraceSession::Current();
  obs::TraceBuffer* previous = obs::ActiveBuffer();
  if (session != nullptr) {
    obs::BindThreadToShard(session, shard.index);
  }
  if (pulse_ != nullptr) {
    // Wall stamps taken on the thread running the slice: safe concurrently
    // (NowNs only reads the run base), and that thread owns the component's
    // shards for the slice.
    shard.work_begin_ns = pulse_->NowNs();
    shard.epoch_executed = shard.scheduler->RunWhileBefore(shard.horizon, shard.budget);
    shard.work_end_ns = pulse_->NowNs();
  } else {
    shard.epoch_executed = shard.scheduler->RunWhileBefore(shard.horizon, shard.budget);
  }
  if (session != nullptr) {
    obs::BindThreadToBuffer(previous);
  }
}

void ParallelRunner::RunQueue() {
  for (;;) {
    Component* comp = nullptr;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty()) {
        // Every component still unfinished is held by a thread that queues
        // it again (and can take it back) after its slice.
        return;
      }
      comp = queue_.front();
      queue_.pop_front();
    }
    if (RunSlice(*comp)) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(comp);
    }
  }
}

bool ParallelRunner::RunSlice(Component& comp) {
  const u64 slice_end = comp.executed + kSliceEvents;
  while (comp.executed < slice_end) {
    if (comp.executed >= comp.share || !PlanEpoch(comp)) {
      return false;
    }
    for (const usize index : comp.shards) {
      RunShardEpoch(*shards_[index]);
    }
    CloseEpoch(comp, pulse_ != nullptr ? pulse_->NowNs() : 0);
  }
  return true;
}

u64 ParallelRunner::Run(const ParallelRunOptions& opts) {
  const usize threads =
      std::max<usize>(1, std::min(opts.threads, shards_.size()));
  if (components_stale_) {
    FindComponents();
  }
  if (obs::TraceSession* session = obs::TraceSession::Current()) {
    // Grow the shard buffers while no epoch runs; EnsureShards is
    // single-threaded by contract.
    session->EnsureShards(shards_.size());
  }
  if (pulse_ != nullptr) {
    pulse_->BeginRun(shards_.size(), threads);
  }
  // The components with work, and the budget split by their shard counts.
  std::vector<Component*> busy;
  usize busy_shards = 0;
  const auto has_work = [this](usize s) {
    const Shard& shard = *shards_[s];
    return !shard.scheduler->Empty() || !shard.inbox.empty();
  };
  for (auto& comp : components_) {
    if (opts.max_events > 0 && std::any_of(comp->shards.begin(), comp->shards.end(), has_work)) {
      busy.push_back(comp.get());
      busy_shards += comp->shards.size();
    }
  }
  const u64 budget = opts.max_events;
  for (Component* comp : busy) {
    const u64 size = comp->shards.size();
    comp->share = std::max<u64>(
        1, budget / busy_shards * size + budget % busy_shards * size / busy_shards);
    comp->executed = 0;
  }
  if (busy.size() > 1 && threads > 1) {
    queue_.assign(busy.begin(), busy.end());
    {
      // The calling thread and one thread per further busy component (at
      // most threads - 1) drain the queue; leaving the scope joins them.
      std::vector<std::jthread> helpers(std::min(threads, busy.size()) - 1);
      for (std::jthread& helper : helpers) {
        helper = std::jthread([this] { RunQueue(); });
      }
      RunQueue();
    }
    for (Component* comp : busy) {
      Fold(*comp, /*parallel=*/true);
    }
  } else {
    // The calling thread runs the components one after another; folding
    // after every slice keeps the buffered pulse records bounded.
    for (Component* comp : busy) {
      for (bool more = true; more;) {
        more = RunSlice(*comp);
        Fold(*comp, /*parallel=*/false);
      }
    }
  }
  u64 total = 0;
  for (Component* comp : busy) {
    total += comp->executed;
  }
  if (pulse_ != nullptr) {
    pulse_->EndRun(total);
  }
  return total;
}

}  // namespace emu
