// Point-to-point link with bandwidth and propagation delay.
//
// A link delivers every frame perfectly unless impairment is enabled:
// EnableImpairment attaches a FrameImpairer whose fault points
// (`<name>.drop` / `.corrupt` / `.dup` / `.reorder` / `.delay`) are armed
// through a FaultRegistry plan. With the points disarmed the link's timing
// and delivery are bit-identical to an unimpaired link.
//
// A link may also span two shards of a parallel topology run: RouteRemote
// diverts one direction's completed transmissions to a sink (the parallel
// runner's inbox for the receiving shard) instead of the local event queue.
// Each handoff is stamped with its absolute arrival time and a per-direction
// sequence number, so the receiving shard can order simultaneous arrivals
// deterministically regardless of thread interleaving. The link's minimum
// transit time (serialization of the smallest frame plus propagation) is the
// conservative lookahead the runner synchronizes on.
#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <functional>
#include <memory>
#include <string>

#include "src/fault/frame_impairer.h"
#include "src/net/packet.h"
#include "src/sim/event_scheduler.h"

namespace emu {

class MetricsRegistry;

class Link {
 public:
  using Receiver = std::function<void(Packet)>;

  // One cross-shard handoff: a frame plus everything the receiving shard
  // needs to schedule it deterministically.
  struct RemoteFrame {
    Picoseconds arrival = 0;
    u64 link_id = 0;  // runner-assigned, unique per routed direction
    u64 seq = 0;      // per-direction FIFO stamp, assigned by the sender
    Packet frame;
  };
  using RemoteSink = std::function<void(RemoteFrame)>;

  Link(EventScheduler& scheduler, u64 bits_per_second, Picoseconds propagation_delay)
      : scheduler_(scheduler),
        bits_per_second_(bits_per_second),
        propagation_delay_(propagation_delay) {}

  void AttachA(Receiver receiver) { end_a_ = std::move(receiver); }
  void AttachB(Receiver receiver) { end_b_ = std::move(receiver); }

  // Sends toward end B (from A) or end A (from B); the frame is delivered
  // after serialization + propagation, respecting link occupancy.
  void SendToB(Packet frame) { Transmit(std::move(frame), /*to_b=*/true); }
  void SendToA(Packet frame) { Transmit(std::move(frame), /*to_b=*/false); }

  // Impairs the `to_b` direction with `<name>.*` fault points owned by that
  // direction alone. This composes with cross-shard routing: each
  // direction's points are sampled only in Transmit, which runs on that
  // direction's sending shard in its deterministic event order, so the
  // streams replay bit-exactly for any thread count. The two directions must
  // use distinct names — sharing a prefix would share FaultPoints (and their
  // RNG streams) across two sender shards. A direction is impaired once; a
  // second call for it aborts, in every build type.
  void EnableImpairment(bool to_b, FaultRegistry& registry, const std::string& name);

  bool impaired() const { return impairer_to_b_ != nullptr || impairer_to_a_ != nullptr; }
  // The impairer deciding for one direction, or null.
  FrameImpairer* impairer(bool to_b) {
    return to_b ? impairer_to_b_.get() : impairer_to_a_.get();
  }

  // Shard-boundary routing for the `to_b` direction: transmissions complete
  // into `sink` instead of the local event queue, and Transmit reads the
  // clock from `sender` (the sending shard's scheduler). The receiving shard
  // delivers via CompleteRemote.
  void RouteRemote(bool to_b, EventScheduler& sender, u64 link_id, RemoteSink sink);
  bool remote(bool to_b) const { return to_b ? static_cast<bool>(remote_b_) : static_cast<bool>(remote_a_); }

  // Executes one drained cross-shard delivery on the receiving shard.
  void CompleteRemote(Packet frame, bool to_b);

  // Lower bound on sender-clock-to-delivery latency for any frame: one
  // minimum-size serialization plus propagation. This is the conservative
  // lookahead a parallel run may advance a receiving shard by.
  Picoseconds MinTransitPs() const;

  // Counters over both directions. A routed link joins its two shards into
  // one link component, which one thread runs at a time, so both ends bump
  // them without a lock. Read after Run() returns, as with all sim counters.
  u64 delivered() const { return delivered_; }
  u64 dropped() const { return dropped_; }
  u64 corrupted() const { return corrupted_; }
  u64 duplicated() const { return duplicated_; }

  // Registers delivered/dropped/corrupted/duplicated as counters under
  // `prefix` (e.g. "link.uplink0").
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

 private:
  struct RemoteRoute {
    EventScheduler* sender = nullptr;
    u64 link_id = 0;
    u64 next_seq = 0;
    RemoteSink sink;
    explicit operator bool() const { return static_cast<bool>(sink); }
  };

  void Transmit(Packet frame, bool to_b);
  void Deliver(Packet frame, bool to_b, Picoseconds arrival);
  EventScheduler& SchedulerFor(bool to_b);

  EventScheduler& scheduler_;
  u64 bits_per_second_;
  Picoseconds propagation_delay_;
  Receiver end_a_;
  Receiver end_b_;
  Picoseconds busy_until_a_to_b_ = 0;
  Picoseconds busy_until_b_to_a_ = 0;
  u64 delivered_ = 0;  // bumped by the receiving end
  u64 dropped_ = 0;    // these three sender-side, in Transmit
  u64 corrupted_ = 0;
  u64 duplicated_ = 0;
  RemoteRoute remote_a_;  // deliveries toward end A
  RemoteRoute remote_b_;  // deliveries toward end B
  std::unique_ptr<FrameImpairer> impairer_to_b_;
  std::unique_ptr<FrameImpairer> impairer_to_a_;
};

}  // namespace emu

#endif  // SRC_SIM_LINK_H_
