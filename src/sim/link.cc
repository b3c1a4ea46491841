#include "src/sim/link.h"

#include <algorithm>

#include "src/common/fatal.h"
#include "src/core/metrics.h"
#include "src/obs/trace_hooks.h"

namespace emu {

void Link::EnableImpairment(bool to_b, FaultRegistry& registry, const std::string& name) {
  std::unique_ptr<FrameImpairer>& slot = to_b ? impairer_to_b_ : impairer_to_a_;
  if (slot != nullptr) {
    Fatal("Link::EnableImpairment", "direction to_%s is already impaired (points '%s')",
          to_b ? "b" : "a", name.c_str());
  }
  slot = std::make_unique<FrameImpairer>(registry, name);
}

void Link::RouteRemote(bool to_b, EventScheduler& sender, u64 link_id, RemoteSink sink) {
  RemoteRoute& route = to_b ? remote_b_ : remote_a_;
  route = RemoteRoute{&sender, link_id, 0, std::move(sink)};
}

EventScheduler& Link::SchedulerFor(bool to_b) {
  const RemoteRoute& route = to_b ? remote_b_ : remote_a_;
  return route ? *route.sender : scheduler_;
}

Picoseconds Link::MinTransitPs() const {
  // Smallest wire occupancy: a zero-byte payload still carries the 24 bytes
  // of preamble + FCS + IFG that Transmit charges.
  const u64 min_bits = 24 * 8;
  const Picoseconds min_serialization =
      static_cast<Picoseconds>(min_bits * kPicosPerSecond / bits_per_second_);
  return min_serialization + propagation_delay_;
}

void Link::Transmit(Packet frame, bool to_b) {
  EventScheduler& clock = SchedulerFor(to_b);
  const u64 bits = static_cast<u64>(frame.size() + 24) * 8;  // preamble+FCS+IFG
  const Picoseconds serialization =
      static_cast<Picoseconds>(bits * kPicosPerSecond / bits_per_second_);
  Picoseconds& busy_until = to_b ? busy_until_a_to_b_ : busy_until_b_to_a_;
  const Picoseconds start = std::max(clock.now(), busy_until);
  busy_until = start + serialization;
  Picoseconds arrival = busy_until + propagation_delay_;
  Receiver& receiver = to_b ? end_b_ : end_a_;
  if (!receiver) {
    return;
  }
  if (FrameImpairer* imp = impairer(to_b); imp != nullptr) {
    const FrameImpairer::Decision decision =
        imp->Decide(static_cast<u64>(clock.now()), frame.size());
    if (decision.drop) {
      ++dropped_;
      return;
    }
    if (decision.corrupt_bit != FrameImpairer::kNoCorrupt) {
      FrameImpairer::FlipBit(frame, decision.corrupt_bit);
      ++corrupted_;
    }
    if (decision.duplicate) {
      // The copy occupies the wire like a real retransmission would.
      ++duplicated_;
      Packet copy = frame;
      busy_until += serialization;
      Deliver(std::move(copy), to_b, busy_until + propagation_delay_);
    }
    if (decision.reorder) {
      // Held back just past one more serialization slot, so a back-to-back
      // successor arrives first.
      arrival += serialization + 1;
    }
    arrival += static_cast<Picoseconds>(decision.extra_delay_ps);
  }
  // Flight recorder: the transit span is emitted sender-side (both endpoints
  // of the span), so cross-shard links trace deterministically — the sending
  // shard knows the arrival time without hearing back from the receiver.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    const u64 flight = obs::FrameTraceId(frame);
    if (flight != 0) {
      obs::EmitAsyncBegin(tb, "link.transit", start, flight);
      obs::EmitAsyncEnd(tb, "link.transit", arrival, flight);
    }
  }
  Deliver(std::move(frame), to_b, arrival);
}

void Link::Deliver(Packet frame, bool to_b, Picoseconds arrival) {
  RemoteRoute& route = to_b ? remote_b_ : remote_a_;
  if (route) {
    // Cross-shard: hand off to the runner's inbox; the receiving shard
    // schedules and executes the delivery at `arrival` on its own clock.
    route.sink(RemoteFrame{arrival, route.link_id, route.next_seq++, std::move(frame)});
    return;
  }
  Receiver& receiver = to_b ? end_b_ : end_a_;
  scheduler_.At(arrival, [this, &receiver, frame = std::move(frame)]() mutable {
    ++delivered_;
    receiver(std::move(frame));
  });
}

void Link::CompleteRemote(Packet frame, bool to_b) {
  Receiver& receiver = to_b ? end_b_ : end_a_;
  if (!receiver) {
    Fatal("Link::CompleteRemote", "remote delivery to unattached end %s", to_b ? "b" : "a");
  }
  ++delivered_;
  receiver(std::move(frame));
}

void Link::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".delivered", [this] { return delivered(); });
  metrics.Register(prefix + ".dropped", [this] { return dropped(); });
  metrics.Register(prefix + ".corrupted", [this] { return corrupted(); });
  metrics.Register(prefix + ".duplicated", [this] { return duplicated(); });
}

}  // namespace emu
