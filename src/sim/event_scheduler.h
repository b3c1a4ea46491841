// Discrete-event scheduler for the network simulator (Mininet substitute).
//
// Scheduled actions are stored type-erased in a RecyclingPool (size-class
// free lists over a bump arena): steady-state scheduling performs no heap
// allocation at all, and the pool rewinds whenever the queue drains — the
// per-shard epoch boundary, where an empty queue proves no closure is live.
// The queue itself holds only POD Event records (time, seq, context pointer,
// run/drop thunks), so heap churn from the old per-event std::function copy
// is gone from the hot path.
#ifndef SRC_SIM_EVENT_SCHEDULER_H_
#define SRC_SIM_EVENT_SCHEDULER_H_

#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/core/arena.h"

namespace emu {

class EventScheduler {
 public:
  using Action = std::function<void()>;

  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  // Unfired events still own pooled closures; destroy them properly.
  ~EventScheduler() {
    while (!queue_.empty()) {
      Event event = queue_.top();
      queue_.pop();
      event.drop(*this, event.ctx);
    }
  }

  Picoseconds now() const { return now_; }

  // Schedules `action` (any void() callable) at absolute time `when`
  // (clamped to now). The callable is moved into pooled storage owned by the
  // scheduler until the event fires or the scheduler dies.
  template <typename F>
  void At(Picoseconds when, F action) {
    using Fn = std::decay_t<F>;
    void* ctx = pool_.Allocate(sizeof(Fn));
    new (ctx) Fn(std::move(action));
    Event event;
    event.when = when < now_ ? now_ : when;
    event.seq = next_seq_++;
    event.ctx = ctx;
    // Move the closure out before freeing its slot and running it: the body
    // may schedule more events (reusing the slot) — same reason the old
    // std::function implementation copied the event off the queue first.
    event.run = [](EventScheduler& self, void* c) {
      Fn* fn = static_cast<Fn*>(c);
      Fn local(std::move(*fn));
      fn->~Fn();
      self.pool_.Free(c, sizeof(Fn));
      local();
    };
    event.drop = [](EventScheduler& self, void* c) {
      Fn* fn = static_cast<Fn*>(c);
      fn->~Fn();
      self.pool_.Free(c, sizeof(Fn));
    };
    queue_.push(event);
  }

  template <typename F>
  void After(Picoseconds delay, F action) {
    At(now_ + delay, std::move(action));
  }

  bool Empty() const { return queue_.empty(); }
  usize pending() const { return queue_.size(); }

  // Absolute time of the earliest pending event; only valid when !Empty().
  // The parallel runner bounds each shard's earliest action with it.
  Picoseconds NextEventTime() const { return queue_.top().when; }

  // Runs a single event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue drains or `max_events` fire.
  void Run(usize max_events = 10'000'000);

  // Runs events with time <= deadline.
  void RunUntil(Picoseconds deadline);

  // Conservative-window execution for the parallel runner: runs events with
  // time strictly BEFORE `bound` (at most `max_events` of them) and returns
  // how many ran. Unlike RunUntil, now() is left at the last executed event,
  // not advanced to the bound — later cross-shard arrivals carry absolute
  // timestamps and must not be clamped forward.
  usize RunWhileBefore(Picoseconds bound, usize max_events);

  // Events executed over this scheduler's lifetime.
  u64 executed() const { return executed_; }

 private:
  struct Event {
    Picoseconds when;
    u64 seq;  // FIFO tiebreak for simultaneous events
    void* ctx;
    void (*run)(EventScheduler&, void*);   // invoke + destroy + free
    void (*drop)(EventScheduler&, void*);  // destroy + free (teardown)
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  Picoseconds now_ = 0;
  u64 next_seq_ = 0;
  u64 executed_ = 0;
  RecyclingPool pool_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace emu

#endif  // SRC_SIM_EVENT_SCHEDULER_H_
