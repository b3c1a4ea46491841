// Topology construction for the event-driven simulator.
//
// TopologyBuilder is the one way a simulated network is wired and run: it
// owns the schedulers, hosts, nodes, hub and links, gives every element its
// own shard, and routes every link direction across the shard cut it
// crosses, through the ParallelRunner with the link's minimum transit time
// as conservative lookahead. Each classic shape is built in one place — a
// builder method: a star (hosts around one ServiceNode running an Emu
// service, the Mininet setups the paper tests the NAT and other services on
// before synthesizing them), a cluster (one node per host, the Table 4
// side-by-side setups) and a hub (host i on port i of a learning switch).
// ScenarioSpec (src/chain/scenario_spec.h) names the same three shapes as
// spec keywords, and BuildScenario calls these methods. Every run is
// bit-exact for any thread count; at threads=1 the runner is the serial
// reference (emu-par, src/sim/parallel_runner.h).
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

// Owns and wires a topology: every element gets its own scheduler,
// registered as a ParallelRunner shard, and each link direction is routed
// across the boundary it crosses. Shard indices and link ids follow the
// order elements and links are added in.
class TopologyBuilder {
 public:
  TopologyBuilder() = default;
  TopologyBuilder(const TopologyBuilder&) = delete;
  TopologyBuilder& operator=(const TopologyBuilder&) = delete;

  // --- Shapes. Each adds its elements and links to this builder. ---

  // Star: one ServiceNode around `service`, host i on its port i. Wires the
  // node, then each host and its link. A star is one link component, so it
  // runs on one thread at any thread count. A fifth host aborts in
  // ServiceNode::AttachPort, in every build type.
  ServiceNode& BuildStar(Service& service, const std::vector<HostSpec>& hosts,
                         const StarTopologyConfig& config = StarTopologyConfig());

  // Cluster: `services[i]` on its own node, paired with `hosts[i]` on the
  // node's port 0. Wires each pair as node, then host, then link. Each pair
  // is its own link component, and the runner runs the busy pairs side by
  // side on up to `threads` threads. A size mismatch or a null service is
  // fatal in every build type.
  void BuildCluster(const std::vector<Service*>& services, const std::vector<HostSpec>& hosts,
                    const StarTopologyConfig& config = StarTopologyConfig());

  // Hub: one HubNode with a port per host, host i on port i (emu-gossip) —
  // the shape for host-to-host protocols like SWIM membership, where every
  // host talks to every other and N exceeds kNetFpgaPortCount. Wires the
  // hub, then each host and its link. ChaosDirector relies on the port
  // mapping to turn partition groups into the hub's port-pair blocks.
  HubNode& BuildHub(const std::vector<HostSpec>& hosts,
                    const StarTopologyConfig& config = StarTopologyConfig());

  // --- Elements (each call creates that element's shard). A topology has
  // at most one hub; a second AddHub is fatal. ---
  ServiceNode& AddServiceNode(Service& service);
  HubNode& AddHub(usize ports);
  SimHost& AddHost(const HostSpec& spec);

  // --- Wiring (host on end A). The link is created on the host's scheduler
  // and becomes the host's uplink; both directions are routed across the
  // shard cut. A host, node or hub this builder does not own is fatal in
  // every build type. ---
  Link& LinkHostToNode(SimHost& host, ServiceNode& node, u8 port,
                       const StarTopologyConfig& config);
  Link& LinkHostToHub(SimHost& host, HubNode& hub, usize port,
                      const StarTopologyConfig& config);

  // Registers per-direction impairment points for `link` — `<prefix>.up.*`
  // for the host→peer direction, `<prefix>.down.*` for peer→host. Each
  // direction's points are sampled on its sending shard (the Link
  // per-direction impairment contract), so threads=N stays bit-exact.
  void EnableLinkImpairment(Link& link, FaultRegistry& registry, const std::string& prefix);

  // Registers per-direction impairment for every host uplink, named
  // `<prefix>.<host>.up.*` / `<prefix>.<host>.down.*` (e.g. the soak plans
  // arm `link.h0.up.drop`). Returns the number of links impaired. Points are
  // inert until a plan arms them, so registration never perturbs a run.
  usize EnableAllUplinkImpairment(FaultRegistry& registry, const std::string& prefix = "link");

  // Runs all shards to quiescence (or the event budget); returns events
  // executed. Bit-exact for any opts.threads.
  u64 Run(const ParallelRunOptions& opts = {}) { return runner_.Run(opts); }

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

 private:
  EventScheduler& NewScheduler(usize& shard_out);
  Link& MakeUplink(SimHost& host, const StarTopologyConfig& config);
  void RouteBothWays(Link& link, usize host_shard, usize peer_shard);
  usize HostIndex(const SimHost& host) const;

  ParallelRunner runner_;
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

// The cluster shape in one constructor call.
class ShardedTopology : public TopologyBuilder {
 public:
  ShardedTopology(const std::vector<Service*>& services, const std::vector<HostSpec>& hosts,
                  const StarTopologyConfig& config = StarTopologyConfig()) {
    BuildCluster(services, hosts, config);
  }
};

}  // namespace emu

#endif  // SRC_SIM_TOPOLOGY_H_
