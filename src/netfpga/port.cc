#include "src/netfpga/port.h"

#include "src/obs/trace_hooks.h"

namespace emu {

Cycle SerializationCycles(usize frame_bytes, const Simulator& sim) {
  const Picoseconds ps = SerializationPs(frame_bytes);
  return static_cast<Cycle>((ps + sim.cycle_period_ps() - 1) / sim.cycle_period_ps());
}

Picoseconds SerializationPs(usize frame_bytes) {
  const u64 bits = static_cast<u64>(frame_bytes + kWireOverheadBytes) * 8;
  return static_cast<Picoseconds>(bits * kPicosPerSecond / kTenGigBitsPerSecond);
}

TenGigPort::TenGigPort(Simulator& sim, std::string name, u8 index, usize rx_fifo_depth)
    : Module(sim, std::move(name)),
      index_(index),
      rx_fifo_(sim, this->name() + ".rx_fifo", rx_fifo_depth, 256) {
  // 10G MAC + attachment logic; shared infrastructure outside the "main
  // logical core" the tables report, but tracked for completeness.
  AddResources(ResourceUsage{950, 1200, 2});
}

Cycle TenGigPort::Deliver(Packet frame, Cycle earliest) {
  const Picoseconds cycle_ps = sim().cycle_period_ps();
  const Picoseconds earliest_ps = static_cast<Picoseconds>(earliest) * cycle_ps;
  const Picoseconds start_ps = std::max({earliest_ps, wire_busy_ps_, sim().NowPs()});
  const Picoseconds wire_done_ps = start_ps + SerializationPs(frame.size());
  wire_busy_ps_ = wire_done_ps;  // back-to-back frames respect exact line rate
  // The frame reaches the fabric only after the MAC/PHY pipeline.
  const Picoseconds fabric_ps = wire_done_ps + kMacPhyLatencyPs;
  const Cycle complete = static_cast<Cycle>((fabric_ps + cycle_ps - 1) / cycle_ps);
  frame.set_src_port(index_);
  frame.set_ingress_time(start_ps);
  // Flight recorder ingress point: the port is where a frame enters the
  // traced world, so it assigns the flight id (unless an upstream stage —
  // a loadgen or link — already did) and opens the whole-flight span.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    if (frame.trace_id() == 0) {
      frame.set_trace_id(obs::NextFlightId(tb));
    }
    obs::EmitAsyncBegin(tb, "pkt.flight", start_ps, frame.trace_id());
  }
  wire_.push_back(WireFrame{std::move(frame), complete});
  // The wire deque is not a SyncFifo, so announce the mutation ourselves: a
  // parked ingress process must re-evaluate its wait.
  sim().NotifyWake();
  return complete;
}

HwProcess TenGigPort::MakeIngressProcess() {
  for (;;) {
    // Park until something is on the wire, then sleep out its serialization
    // time; completion times are monotonic per port, so the front frame is
    // always the next to land. After the landings the loop comes straight
    // back here on the same edge and sleeps until the next frame's
    // complete_at (or parks on an empty wire), so a streaming port costs one
    // resume per frame.
    co_await WaitUntil([this] { return !wire_.empty(); });
    if (wire_.front().complete_at > sim().now()) {
      co_await PauseFor(wire_.front().complete_at - sim().now());
    }
    while (!wire_.empty() && wire_.front().complete_at <= sim().now()) {
      ++rx_frames_;
      // Tail-drop point: a full rx FIFO loses the frame, and the drop is
      // deliberate — consult CanPush so emu-check sees observed backpressure.
      if (rx_fifo_.CanPush()) {
        rx_fifo_.Push(std::move(wire_.front().frame));
      } else {
        ++rx_drops_;
      }
      wire_.pop_front();
    }
  }
}

}  // namespace emu
