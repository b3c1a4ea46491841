// ChaosDirector: applies a FaultPlan's topology-scoped events (host crash /
// restart / partition windows, emu-gossip) to a TopologyBuilder topology of
// any shape; partitions need the hub shape (TopologyBuilder::BuildHub).
//
// The events are RNG-free and statically known, so Apply() does everything
// determinism needs up front, before any shard thread runs:
//
//  1. Validates every event against the topology (unknown host -> error with
//     the plan line, nothing scheduled).
//  2. Logs the whole campaign to the FaultRegistry in time order — the
//     injection log and LogDigest() then cover node-level chaos without any
//     cross-thread logging at fire time.
//  3. Schedules the state changes where they are safe: crash/restart on the
//     OWNING host's EventScheduler (the host shard's thread flips the
//     lifecycle, so the state machine never races the frame path), partition
//     block/unblock on the hub's EventScheduler (the hub shard's thread
//     mutates the port-pair block matrix).
//
// With the same plan and topology, a run is bit-exact under replay and for
// any ParallelRunner thread count.
#ifndef SRC_SIM_CHAOS_H_
#define SRC_SIM_CHAOS_H_

#include <string>

#include "src/common/status.h"
#include "src/fault/fault_registry.h"
#include "src/sim/topology.h"

namespace emu {

class ChaosDirector {
 public:
  // `registry` may be null: events still apply, just unlogged. The director
  // drives any TopologyBuilder topology; partitions additionally need a hub
  // (host i on hub port i) to block port pairs on.
  explicit ChaosDirector(TopologyBuilder& topo, FaultRegistry* registry = nullptr)
      : topo_(topo), registry_(registry) {}

  // Boot window charged by every `restart` event (default 5 ms: a fast
  // kexec-style reboot on the simulated timeline).
  void set_boot_delay(Picoseconds delay) { boot_delay_ = delay; }
  Picoseconds boot_delay() const { return boot_delay_; }

  // Validates, logs, and schedules plan.topo_events. On error (unknown host)
  // nothing is logged or scheduled. Point-schedule entries in the plan are
  // not touched — arm those on the registry as usual.
  Status Apply(const FaultPlan& plan);

  // Scheduler events planted by successful Apply() calls.
  usize scheduled() const { return scheduled_; }

 private:
  TopologyBuilder& topo_;
  FaultRegistry* registry_;
  Picoseconds boot_delay_ = 5 * kPicosPerMilli;
  usize scheduled_ = 0;
};

}  // namespace emu

#endif  // SRC_SIM_CHAOS_H_
