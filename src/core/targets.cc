#include "src/core/targets.h"

#include "src/obs/trace_hooks.h"

namespace emu {

FpgaTarget::FpgaTarget(Service& service, PipelineConfig config, u64 clock_hz)
    : scheduler_(clock_hz) {
  pipeline_ = std::make_unique<NetFpgaPipeline>(scheduler_.sim(), service, config);
  pipeline_->SetEgressSink([this](u8 port, Packet frame) {
    // Flight recorder egress point: closes the whole-flight span opened at
    // the ingress port.
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      if (frame.trace_id() != 0) {
        const Picoseconds ts =
            frame.egress_time() > 0 ? frame.egress_time() : scheduler_.sim().NowPs();
        obs::EmitAsyncEnd(tb, "pkt.flight", ts, frame.trace_id());
      }
    }
    egress_.push_back(EgressFrame{port, std::move(frame)});
  });
}

void FpgaTarget::Inject(u8 port, Packet frame, Cycle earliest) {
  pipeline_->InjectFrame(port, std::move(frame), earliest);
}

bool FpgaTarget::RunUntilEgressCount(usize count, Cycle limit) {
  return scheduler_.RunUntil([this, count] { return egress_.size() >= count; }, limit);
}

Expected<Packet> FpgaTarget::SendAndCollect(u8 port, Packet frame, Cycle limit) {
  const usize before = egress_.size();
  Inject(port, std::move(frame));
  if (!RunUntilEgressCount(before + 1, limit)) {
    return Timeout("no egress frame within cycle limit");
  }
  return egress_[before].frame;
}

std::vector<EgressFrame> FpgaTarget::TakeEgress() {
  std::vector<EgressFrame> out = std::move(egress_);
  egress_.clear();
  // A caller draining in chunks takes about as many frames each time: start
  // the next log at this one's capacity instead of regrowing it frame by frame.
  egress_.reserve(out.capacity());
  return out;
}

CpuTarget::CpuTarget(Service& service, usize fifo_depth) : service_(service) {
  rx_ = std::make_unique<SyncFifo<Packet>>(scheduler_.sim(), "cpu_rx", fifo_depth, 256);
  tx_ = std::make_unique<SyncFifo<Packet>>(scheduler_.sim(), "cpu_tx", fifo_depth, 256);
  // The host side of the dataplane: Deliver() pushes rx and drains tx from
  // outside the process graph (emu-lint must not flag them as dead ends).
  scheduler_.sim().catalog().MarkExternal(rx_.get());
  scheduler_.sim().catalog().MarkExternal(tx_.get());
  service_.Instantiate(scheduler_.sim(), Dataplane{rx_.get(), tx_.get()});
}

std::vector<Packet> CpuTarget::Deliver(Packet frame, usize max_quanta) {
  const u64 flight = frame.trace_id();
  if (rx_->CanPush()) {
    rx_->Push(std::move(frame));
  }
  std::vector<Packet> out;
  // Run until the service has drained its input and stopped producing: give
  // it a grace window of quanta with no new output before declaring it idle
  // (some services emit several frames per input, and request FSMs can spend
  // hundreds of quanta before replying). The advance goes through RunUntil
  // rather than per-cycle Step so the kernel's quiescence fast path can jump
  // the idle stretches — in a sharded topology run this is what keeps each
  // node shard cheap between frames.
  constexpr usize kIdleGrace = 1024;
  usize spent = 0;
  usize idle = 0;
  while (spent < max_quanta && idle < kIdleGrace) {
    const usize chunk = std::min(max_quanta - spent, kIdleGrace - idle);
    const Cycle before = scheduler_.sim().now();
    scheduler_.sim().RunUntil([this] { return !tx_->Empty(); },
                              static_cast<Cycle>(chunk));
    const usize ran = static_cast<usize>(scheduler_.sim().now() - before);
    spent += ran;
    if (tx_->Empty()) {
      idle += ran;  // the whole chunk elapsed without output
      continue;
    }
    idle = 0;
    while (!tx_->Empty()) {
      out.push_back(tx_->Pop());
    }
  }
  // Replies built from scratch by the service lose the request's flight id;
  // restore it so the waterfall spans the round trip.
  if (flight != 0) {
    for (Packet& reply : out) {
      if (reply.trace_id() == 0) {
        reply.set_trace_id(flight);
      }
    }
  }
  return out;
}

}  // namespace emu
