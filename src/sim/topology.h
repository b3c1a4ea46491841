// Topology construction for the event-driven simulator.
//
// TopologyBuilder is the one way topologies get wired (emu-chain API
// redesign): it owns the schedulers, hosts, nodes, hub, and links, creates a
// shard per element in sharded mode, and routes every boundary-crossing link
// direction through the ParallelRunner with the link's minimum transit time
// as conservative lookahead. The classic shapes — StarTopology,
// ShardedTopology, HubTopology — are thin wrappers that keep their historic
// APIs but delegate all wiring to a builder, and ScenarioSpec
// (src/chain/scenario_spec.h) targets the builder directly, making
// star/cluster/hub spec keywords rather than three divergent C++ entry
// points.
//
// StarTopology is the common serial shape: up to four hosts, each on its own
// 10G link, around one ServiceNode running an Emu service — functionally the
// Mininet setups the paper uses to test the NAT and other services before
// synthesizing them. The sharded shapes run bit-exact for any thread count
// (emu-par, src/sim/parallel_runner.h).
#ifndef SRC_SIM_TOPOLOGY_H_
#define SRC_SIM_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/hub.h"
#include "src/sim/parallel_runner.h"
#include "src/sim/sim_host.h"

namespace emu {

class FaultRegistry;

struct HostSpec {
  std::string name;
  MacAddress mac;
  Ipv4Address ip;
};

struct StarTopologyConfig {
  u64 link_bits_per_second = 10'000'000'000ULL;
  Picoseconds link_delay = 500'000;  // 500 ns of cable + switch PHY
};

// Owns and wires a topology. kFlat puts every element on one EventScheduler
// (the serial StarTopology shape); kSharded gives every element its own
// scheduler registered as a ParallelRunner shard and routes each link
// direction across the boundary it crosses.
class TopologyBuilder {
 public:
  enum class Mode : u8 { kFlat = 0, kSharded };

  explicit TopologyBuilder(Mode mode = Mode::kSharded);
  TopologyBuilder(const TopologyBuilder&) = delete;
  TopologyBuilder& operator=(const TopologyBuilder&) = delete;

  Mode mode() const { return mode_; }

  // --- Elements (sharded mode: each call creates that element's shard).
  // A topology has at most one hub; a second AddHub is fatal. ---
  ServiceNode& AddServiceNode(Service& service);
  HubNode& AddHub(usize ports);
  SimHost& AddHost(const HostSpec& spec);

  // --- Wiring (host on end A — the StarTopology convention). The link is
  // created on the host's scheduler and becomes the host's uplink; in
  // sharded mode both directions are routed across the shard cut. A host,
  // node or hub this builder does not own is fatal in every build type. ---
  Link& LinkHostToNode(SimHost& host, ServiceNode& node, u8 port,
                       const StarTopologyConfig& config);
  Link& LinkHostToHub(SimHost& host, HubNode& hub, usize port,
                      const StarTopologyConfig& config);

  // Registers per-direction impairment points for `link` — `<prefix>.up.*`
  // for the host→peer direction, `<prefix>.down.*` for peer→host. Safe on
  // routed links: each direction's points are sampled on its sending shard
  // (the Link per-direction impairment contract).
  void EnableLinkImpairment(Link& link, FaultRegistry& registry, const std::string& prefix);

  // Registers per-direction impairment for every host uplink, named
  // `<prefix>.<host>.up.*` / `<prefix>.<host>.down.*` (e.g. the soak plans
  // arm `link.h0.up.drop`). Returns the number of links impaired. Points are
  // inert until a plan arms them, so registration never perturbs a run.
  usize EnableAllUplinkImpairment(FaultRegistry& registry, const std::string& prefix = "link");

  // Runs to quiescence (or the event budget); returns events executed.
  // Sharded: bit-exact for any opts.threads. Flat: opts.threads is ignored
  // (one scheduler) and opts.max_events bounds the run.
  u64 Run(const ParallelRunOptions& opts = {});

  // Flat-mode scheduler; fatal on a sharded builder, in every build type.
  EventScheduler& scheduler();
  ParallelRunner& runner() { return runner_; }

  // --- Accessors ---
  SimHost& host(usize i) { return *hosts_[i]; }
  usize host_count() const { return hosts_.size(); }
  // Host index by name, or host_count() when absent.
  usize FindHost(const std::string& name) const;
  ServiceNode& node(usize i = 0) { return *nodes_[i]; }
  usize node_count() const { return nodes_.size(); }
  bool has_hub() const { return hub_ != nullptr; }
  HubNode& hub() { return *hub_; }
  // The uplink created for host i by LinkHostTo*, or null when unlinked.
  Link* uplink(usize i) { return i < uplinks_.size() ? uplinks_[i] : nullptr; }
  usize ShardOfHost(usize i) const { return host_shards_[i]; }

 private:
  EventScheduler& NewScheduler(usize& shard_out);
  Link& MakeUplink(SimHost& host, const StarTopologyConfig& config);
  void RouteBothWays(Link& link, usize host_shard, usize peer_shard);
  usize HostIndex(const SimHost& host) const;

  Mode mode_;
  ParallelRunner runner_;
  std::unique_ptr<EventScheduler> flat_scheduler_;
  std::vector<std::unique_ptr<EventScheduler>> schedulers_;
  std::vector<std::unique_ptr<ServiceNode>> nodes_;
  std::unique_ptr<HubNode> hub_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<usize> host_shards_;
  std::vector<usize> node_shards_;
  usize hub_shard_ = 0;
  std::vector<Link*> uplinks_;  // parallel to hosts_
};

// Up to four hosts around one ServiceNode on a single scheduler. A fifth
// host aborts in ServiceNode::AttachPort, in every build type.
class StarTopology {
 public:
  StarTopology(Service& service, std::vector<HostSpec> hosts,
               StarTopologyConfig config = StarTopologyConfig());

  EventScheduler& scheduler() { return builder_.scheduler(); }
  SimHost& host(usize i) { return builder_.host(i); }
  usize host_count() const { return builder_.host_count(); }
  ServiceNode& service_node() { return builder_.node(); }

  // Convenience: run the event loop until quiescent.
  void Run(usize max_events = 1'000'000);

 private:
  TopologyBuilder builder_;
};

// A topology partitioned for parallel execution. Two shapes:
//
//  - Star: all hosts around ONE service node (the StarTopology shape).
//    Shards: the node, plus one per host.
//  - Cluster: one service node PER host (services side by side, as in the
//    Table 4 service-comparison setups). Shards: one per node, one per host;
//    each node/host pair is its own link component, and the runner runs
//    the busy pairs side by side on up to `threads` threads.
//
// In both, every host-node link crosses a shard boundary in both
// directions. A star is one link component, so it runs on one thread at
// any thread count, and like StarTopology it takes at most four hosts.
// Each ServiceNode's software-semantics work runs in its embedded
// Simulator, with quiescence fast-forward.
class ShardedTopology {
 public:
  // Star shape around `service`.
  ShardedTopology(Service& service, std::vector<HostSpec> hosts,
                  StarTopologyConfig config = StarTopologyConfig());

  // Cluster shape: `services[i]` is paired with `hosts[i]`. A size mismatch
  // or a null service is fatal in every build type.
  ShardedTopology(const std::vector<Service*>& services, std::vector<HostSpec> hosts,
                  StarTopologyConfig config = StarTopologyConfig());

  SimHost& host(usize i) { return builder_.host(i); }
  usize host_count() const { return builder_.host_count(); }
  ServiceNode& node(usize i = 0) { return builder_.node(i); }
  usize node_count() const { return builder_.node_count(); }
  ParallelRunner& runner() { return builder_.runner(); }

  // Runs all shards to quiescence; returns events executed. Bit-exact for
  // any opts.threads.
  u64 Run(const ParallelRunOptions& opts = {}) { return builder_.Run(opts); }

 private:
  TopologyBuilder builder_;
};

// N hosts around a HubNode learning switch (emu-gossip): the shape for
// host-to-host protocols like SWIM membership, where every host talks to
// every other and N exceeds kNetFpgaPortCount. Sharding: the hub is shard 0,
// each host its own shard; every link crosses shards in both directions, so
// Run(threads=N) is bit-exact against Run(threads=1). Host i sits on hub
// port i — ChaosDirector uses that mapping to translate partition groups
// into the hub's port-pair block matrix.
class HubTopology {
 public:
  explicit HubTopology(std::vector<HostSpec> hosts,
                       StarTopologyConfig config = StarTopologyConfig());

  SimHost& host(usize i) { return builder_.host(i); }
  usize host_count() const { return builder_.host_count(); }
  HubNode& hub() { return builder_.hub(); }
  ParallelRunner& runner() { return builder_.runner(); }
  TopologyBuilder& builder() { return builder_; }

  // Host index by name, or host_count() when absent.
  usize FindHost(const std::string& name) const { return builder_.FindHost(name); }

  // Per-direction impairment on every hub uplink (`<prefix>.<host>.up/.down`).
  // Composes with the hub's cross-shard routing: each direction's points are
  // sampled on its own sending shard, so threads=N stays bit-exact.
  usize EnableImpairment(FaultRegistry& registry, const std::string& prefix = "link") {
    return builder_.EnableAllUplinkImpairment(registry, prefix);
  }

  // Runs all shards to quiescence; returns events executed. Bit-exact for
  // any opts.threads.
  u64 Run(const ParallelRunOptions& opts = {}) { return builder_.Run(opts); }

 private:
  TopologyBuilder builder_;
};

}  // namespace emu

#endif  // SRC_SIM_TOPOLOGY_H_
