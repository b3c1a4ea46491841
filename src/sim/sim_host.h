// Hosts for the event-driven network simulator, including the adapter that
// runs an Emu Service inside it (the Mininet target of §3.3/§4.4).
#ifndef SRC_SIM_SIM_HOST_H_
#define SRC_SIM_SIM_HOST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/targets.h"
#include "src/net/mac_address.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"

namespace emu {

class MetricsRegistry;

// Node-level lifecycle (emu-gossip). A host is kUp until a chaos event
// crashes it; while kCrashed every in-flight frame addressed to it is
// disposed on arrival and Send() is inert. Restart() models the boot window
// as kRestarting (still deaf) and completes after `boot_delay`, firing the
// OnRestart hook so the application can reset its state and rejoin.
enum class HostLifecycle : u8 { kUp = 0, kCrashed, kRestarting };

const char* HostLifecycleName(HostLifecycle state);

// An end host: receives frames, can send out its single interface, and hands
// received frames to an application callback.
class SimHost {
 public:
  using App = std::function<void(SimHost&, Packet)>;

  SimHost(EventScheduler& scheduler, std::string name, MacAddress mac, Ipv4Address ip);

  const std::string& name() const { return name_; }
  MacAddress mac() const { return mac_; }
  Ipv4Address ip() const { return ip_; }
  EventScheduler& scheduler() { return scheduler_; }

  // Wire the host to a link end; Topology does this.
  void AttachUplink(Link* link, bool is_end_a);

  void SetApp(App app) { app_ = std::move(app); }

  // Transmits on the uplink; a host with none is fatal in every build type.
  void Send(Packet frame);
  void Receive(Packet frame);

  // --- Lifecycle (must be called from this host's shard: chaos events are
  // scheduled on the host's own EventScheduler, so the state machine never
  // races the frame path). ---
  HostLifecycle lifecycle() const { return lifecycle_; }
  bool up() const { return lifecycle_ == HostLifecycle::kUp; }

  // Kills the host: application state is gone (the app's OnRestart hook is
  // what re-creates it), frames in flight toward the host are dropped on
  // arrival, and Send() drops until a restart completes. Idempotent.
  void Crash();

  // Begins rebooting a crashed host; after `boot_delay` the host is kUp and
  // `on_restart` (SetOnRestart) fires. A restart of an up host is a
  // power-cycle: crash semantics apply for the boot window.
  void Restart(Picoseconds boot_delay = 0);

  // Hook invoked when a restart completes, on the host's shard. The app uses
  // it to reset protocol state and rejoin (SWIM re-joins with a fresh
  // incarnation here).
  void SetOnRestart(std::function<void()> on_restart) { on_restart_ = std::move(on_restart); }

  u64 sent() const { return sent_; }
  u64 received() const { return received_; }
  // Frames disposed because they arrived while the host was not up, and
  // sends swallowed for the same reason.
  u64 lifecycle_dropped() const { return lifecycle_dropped_; }
  u64 crashes() const { return crashes_; }
  u64 restarts() const { return restarts_; }

  // Registers sent/received/lifecycle_dropped/crashes/restarts under
  // `prefix` (e.g. "host.h0").
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

 private:
  EventScheduler& scheduler_;
  std::string name_;
  MacAddress mac_;
  Ipv4Address ip_;
  Link* uplink_ = nullptr;
  bool uplink_end_a_ = true;
  App app_;
  HostLifecycle lifecycle_ = HostLifecycle::kUp;
  // Distinguishes overlapping restarts: only the boot-completion event of
  // the most recent Restart() call may bring the host up.
  u64 boot_epoch_ = 0;
  std::function<void()> on_restart_;
  u64 sent_ = 0;
  u64 received_ = 0;
  u64 lifecycle_dropped_ = 0;
  u64 crashes_ = 0;
  u64 restarts_ = 0;
};

// Runs a Service inside the event simulator: frames arriving on any attached
// link are delivered to the service (software semantics, same source as the
// FPGA target) and its output frames are forwarded onto the addressed ports.
// This is the third execution target ("SimTarget").
class ServiceNode {
 public:
  ServiceNode(EventScheduler& scheduler, Service& service);

  // Attaches a link as NetFPGA-style port `port` (end A or B of the link).
  // A port past kNetFpgaPortCount is fatal in every build type.
  void AttachPort(u8 port, Link* link, bool is_end_a);

  // Delivers a frame as if received on `port`.
  void Receive(u8 port, Packet frame);

  // Per-frame processing delay charged inside the node (default: one
  // software scheduling quantum of 10 us, like a userspace process).
  void set_processing_delay(Picoseconds delay) { processing_delay_ = delay; }

  // The node's software execution target; tests attach metrics and fault
  // registries to target().sim(). The embedded Simulator belongs to this
  // node's shard in a parallel run — never touch it from another thread.
  CpuTarget& target() { return target_; }
  EventScheduler& scheduler() { return scheduler_; }

  u64 forwarded() const { return forwarded_; }

 private:
  struct PortAttachment {
    Link* link = nullptr;
    bool is_end_a = true;
  };

  void Emit(Packet frame);

  EventScheduler& scheduler_;
  CpuTarget target_;
  std::vector<PortAttachment> ports_;
  Picoseconds processing_delay_ = 10 * kPicosPerMicro;
  u64 forwarded_ = 0;
};

}  // namespace emu

#endif  // SRC_SIM_SIM_HOST_H_
