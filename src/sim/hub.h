// HubNode: a learning switch for host-to-host topologies (emu-gossip).
//
// ServiceNode is capped at kNetFpgaPortCount ports because it models a
// NetFPGA pipeline; a gossip cluster needs N hosts talking to each other.
// HubNode is the sim-level answer: an arbitrary-port learning switch that
// learns source MACs, forwards to the learned port, and floods unknown or
// broadcast destinations — enough L2 for a UDP membership protocol, with no
// service semantics of its own.
//
// Partitions: the hub holds a COUNTED per-(in_port, out_port) block matrix.
// While block_count(in, out) > 0 no frame entering on `in` leaves on `out`
// (it is dropped and counted). Counts — not booleans — so overlapping
// partition windows compose: each window increments on open and decrements
// on close, and connectivity returns only when every window covering the
// pair has closed. Blocks are directional; a symmetric partition sets both
// directions. Toggle blocks only from the hub's own shard (schedule them on
// the hub's EventScheduler) — the matrix is not synchronized.
#ifndef SRC_SIM_HUB_H_
#define SRC_SIM_HUB_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"

namespace emu {

class MetricsRegistry;

class HubNode {
 public:
  HubNode(EventScheduler& scheduler, usize port_count,
          Picoseconds forward_delay = 1 * kPicosPerMicro);

  EventScheduler& scheduler() { return scheduler_; }
  usize port_count() const { return ports_.size(); }

  // Attaches a link end as port `port`; frames arriving there enter the hub.
  // A port past the last is fatal in every build type.
  void AttachPort(usize port, Link* link, bool is_end_a);

  // Delivers a frame as if received on `port` (links call this).
  void Receive(usize port, Packet frame);

  // Counted directional block: `blocked=true` increments the (from, to)
  // count, `false` decrements it. The pair is partitioned while count > 0.
  // A port past the last, or an unblock of a pair that is not blocked, is
  // fatal in every build type.
  void SetBlocked(usize from_port, usize to_port, bool blocked);
  bool Blocked(usize from_port, usize to_port) const;

  void set_forward_delay(Picoseconds delay) { forward_delay_ = delay; }

  u64 forwarded() const { return forwarded_; }
  u64 flooded() const { return flooded_; }
  u64 partition_dropped() const { return partition_dropped_; }

  // Registers forwarded/flooded/partition_dropped under `prefix`
  // (e.g. "hub").
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

 private:
  struct PortAttachment {
    Link* link = nullptr;
    bool is_end_a = true;
  };

  void Emit(usize in_port, Packet frame);
  u32& BlockCount(usize from_port, usize to_port) {
    return block_counts_[from_port * ports_.size() + to_port];
  }

  EventScheduler& scheduler_;
  std::vector<PortAttachment> ports_;
  std::vector<u32> block_counts_;  // port_count^2, row = ingress port
  std::unordered_map<u64, usize> mac_table_;  // src MAC (u48) -> port
  Picoseconds forward_delay_;
  u64 forwarded_ = 0;
  u64 flooded_ = 0;
  u64 partition_dropped_ = 0;
};

}  // namespace emu

#endif  // SRC_SIM_HUB_H_
