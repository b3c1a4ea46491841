#include "src/sim/hub.h"

#include "src/common/fatal.h"
#include "src/core/metrics.h"
#include "src/net/ethernet.h"

namespace emu {

HubNode::HubNode(EventScheduler& scheduler, usize port_count, Picoseconds forward_delay)
    : scheduler_(scheduler),
      ports_(port_count),
      block_counts_(port_count * port_count, 0),
      forward_delay_(forward_delay) {}

void HubNode::AttachPort(usize port, Link* link, bool is_end_a) {
  if (port >= ports_.size()) {
    Fatal("HubNode::AttachPort", "port %zu out of range (%zu ports)", port, ports_.size());
  }
  ports_[port] = PortAttachment{link, is_end_a};
  const auto receiver = [this, port](Packet frame) { Receive(port, std::move(frame)); };
  if (is_end_a) {
    link->AttachA(receiver);
  } else {
    link->AttachB(receiver);
  }
}

void HubNode::SetBlocked(usize from_port, usize to_port, bool blocked) {
  if (from_port >= ports_.size() || to_port >= ports_.size()) {
    Fatal("HubNode::SetBlocked", "port pair (%zu, %zu) out of range (%zu ports)", from_port,
          to_port, ports_.size());
  }
  u32& count = BlockCount(from_port, to_port);
  if (blocked) {
    ++count;
  } else {
    if (count == 0) {
      // Wrapping the count would block the pair for the rest of the run.
      Fatal("HubNode::SetBlocked", "unblock of port pair (%zu, %zu), which is not blocked",
            from_port, to_port);
    }
    --count;
  }
}

bool HubNode::Blocked(usize from_port, usize to_port) const {
  return block_counts_[from_port * ports_.size() + to_port] > 0;
}

void HubNode::Receive(usize port, Packet frame) {
  EthernetView eth(frame);
  if (!eth.Valid()) {
    return;  // runt frame: nothing to switch on
  }
  const MacAddress src = eth.source();
  if (!src.IsMulticast() && !src.IsZero()) {
    mac_table_[src.ToU48()] = port;
  }
  // Switch fabric latency, then emit. Everything the hub needs is captured
  // by value; the block matrix is consulted at emit time so a partition
  // window opening during the fabric delay still applies.
  scheduler_.At(scheduler_.now() + forward_delay_,
                [this, port, frame = std::move(frame)]() mutable {
                  Emit(port, std::move(frame));
                });
}

void HubNode::Emit(usize in_port, Packet frame) {
  EthernetView eth(frame);
  const MacAddress dst = eth.destination();
  usize out_port = ports_.size();  // sentinel: flood
  if (!dst.IsBroadcast() && !dst.IsMulticast()) {
    const auto it = mac_table_.find(dst.ToU48());
    if (it != mac_table_.end()) {
      out_port = it->second;
    }
  }
  const auto send_on = [this, in_port](usize port, Packet out) {
    if (Blocked(in_port, port)) {
      ++partition_dropped_;
      return;
    }
    PortAttachment& attachment = ports_[port];
    ++forwarded_;
    if (attachment.is_end_a) {
      attachment.link->SendToB(std::move(out));
    } else {
      attachment.link->SendToA(std::move(out));
    }
  };
  if (out_port < ports_.size()) {
    if (out_port != in_port && ports_[out_port].link != nullptr) {
      send_on(out_port, std::move(frame));
    }
    return;
  }
  ++flooded_;
  for (usize port = 0; port < ports_.size(); ++port) {
    if (port == in_port || ports_[port].link == nullptr) {
      continue;
    }
    send_on(port, frame);
  }
}

void HubNode::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".forwarded", &forwarded_);
  metrics.Register(prefix + ".flooded", &flooded_);
  metrics.Register(prefix + ".partition_dropped", &partition_dropped_);
}

}  // namespace emu
