#include "src/sim/sim_host.h"

#include "src/common/fatal.h"
#include "src/core/metrics.h"
#include "src/obs/trace_hooks.h"

namespace emu {

const char* HostLifecycleName(HostLifecycle state) {
  switch (state) {
    case HostLifecycle::kUp: return "up";
    case HostLifecycle::kCrashed: return "crashed";
    case HostLifecycle::kRestarting: return "restarting";
  }
  return "?";
}

SimHost::SimHost(EventScheduler& scheduler, std::string name, MacAddress mac, Ipv4Address ip)
    : scheduler_(scheduler), name_(std::move(name)), mac_(mac), ip_(ip) {}

void SimHost::AttachUplink(Link* link, bool is_end_a) {
  uplink_ = link;
  uplink_end_a_ = is_end_a;
  if (is_end_a) {
    link->AttachA([this](Packet frame) { Receive(std::move(frame)); });
  } else {
    link->AttachB([this](Packet frame) { Receive(std::move(frame)); });
  }
}

void SimHost::Crash() {
  if (lifecycle_ == HostLifecycle::kCrashed) {
    return;
  }
  lifecycle_ = HostLifecycle::kCrashed;
  ++boot_epoch_;  // invalidates any in-flight boot completion
  ++crashes_;
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitInstant(tb, "chaos.crash." + name_, scheduler_.now());
  }
}

void SimHost::Restart(Picoseconds boot_delay) {
  // A restart of an up host is a power-cycle: drop straight into the boot
  // window with crash semantics (Crash() keeps its own idempotence).
  if (lifecycle_ == HostLifecycle::kUp) {
    Crash();
  }
  lifecycle_ = HostLifecycle::kRestarting;
  const u64 epoch = ++boot_epoch_;
  const auto complete = [this, epoch] {
    if (boot_epoch_ != epoch) {
      return;  // superseded by a later crash/restart
    }
    lifecycle_ = HostLifecycle::kUp;
    ++restarts_;
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      obs::EmitInstant(tb, "chaos.restart." + name_, scheduler_.now());
    }
    if (on_restart_) {
      on_restart_();
    }
  };
  if (boot_delay <= 0) {
    complete();
  } else {
    scheduler_.After(boot_delay, complete);
  }
}

void SimHost::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".sent", &sent_);
  metrics.Register(prefix + ".received", &received_);
  metrics.Register(prefix + ".lifecycle_dropped", &lifecycle_dropped_);
  metrics.Register(prefix + ".crashes", &crashes_);
  metrics.Register(prefix + ".restarts", &restarts_);
}

void SimHost::Send(Packet frame) {
  if (uplink_ == nullptr) {
    Fatal("SimHost::Send", "host '%s' has no uplink", name_.c_str());
  }
  if (!up()) {
    ++lifecycle_dropped_;  // a dead host transmits nothing
    return;
  }
  ++sent_;
  // Flight recorder ingress point for simulator topologies: the sending
  // host assigns the flight id and opens the whole-flight span; the reply
  // arriving back at a host closes it.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    if (frame.trace_id() == 0) {
      frame.set_trace_id(obs::NextFlightId(tb));
    }
    obs::EmitAsyncBegin(tb, "pkt.flight", scheduler_.now(), frame.trace_id());
  }
  if (uplink_end_a_) {
    uplink_->SendToB(std::move(frame));
  } else {
    uplink_->SendToA(std::move(frame));
  }
}

void SimHost::Receive(Packet frame) {
  if (!up()) {
    // In-flight frame disposal: anything that reaches a crashed or booting
    // host vanishes, exactly as a dead NIC would drop it.
    ++lifecycle_dropped_;
    return;
  }
  ++received_;
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    if (frame.trace_id() != 0) {
      obs::EmitAsyncEnd(tb, "pkt.flight", scheduler_.now(), frame.trace_id());
    }
  }
  if (app_) {
    app_(*this, std::move(frame));
  }
}

ServiceNode::ServiceNode(EventScheduler& scheduler, Service& service)
    : scheduler_(scheduler), target_(service), ports_(kNetFpgaPortCount) {}

void ServiceNode::AttachPort(u8 port, Link* link, bool is_end_a) {
  if (port >= ports_.size()) {
    Fatal("ServiceNode::AttachPort", "port %u out of range (%zu ports)", unsigned{port},
          ports_.size());
  }
  ports_[port] = PortAttachment{link, is_end_a};
  const auto receiver = [this, port](Packet frame) { Receive(port, std::move(frame)); };
  if (is_end_a) {
    link->AttachA(receiver);
  } else {
    link->AttachB(receiver);
  }
}

void ServiceNode::Receive(u8 port, Packet frame) {
  frame.set_src_port(port);
  // The node's service time on the simulator timeline. (The CpuTarget's own
  // clock is a private domain; tracing it here keeps one coherent timeline.)
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    if (frame.trace_id() != 0) {
      obs::EmitComplete(tb, "node.service", scheduler_.now(), processing_delay_);
    }
  }
  // Run the service (software semantics) on the frame now, emit the results
  // after the node's processing delay.
  auto outputs = target_.Deliver(std::move(frame));
  for (auto& out : outputs) {
    scheduler_.At(scheduler_.now() + processing_delay_,
                  [this, out = std::move(out)]() mutable { Emit(std::move(out)); });
  }
}

void ServiceNode::Emit(Packet frame) {
  const u8 mask = frame.dst_port_mask();
  u32 linked = 0;  // bit p: port p is addressed and has a link
  for (u8 port = 0; port < ports_.size(); ++port) {
    if (((mask >> port) & 1u) != 0 && ports_[port].link != nullptr) {
      linked |= 1u << port;
    }
  }
  for (u8 port = 0; port < ports_.size(); ++port) {
    if (((linked >> port) & 1u) == 0) {
      continue;
    }
    ++forwarded_;
    // A multicast frame is copied for each port but the last, which takes
    // the frame itself.
    const bool last = (linked >> (port + 1)) == 0;
    Packet out = last ? std::move(frame) : Packet(frame);
    if (ports_[port].is_end_a) {
      ports_[port].link->SendToB(std::move(out));
    } else {
      ports_[port].link->SendToA(std::move(out));
    }
  }
}

}  // namespace emu
