#include "src/sim/topology.h"

#include "src/common/fatal.h"
#include "src/fault/fault_registry.h"

namespace emu {

TopologyBuilder::TopologyBuilder(Mode mode) : mode_(mode) {
  if (mode_ == Mode::kFlat) {
    flat_scheduler_ = std::make_unique<EventScheduler>();
  }
}

EventScheduler& TopologyBuilder::NewScheduler(usize& shard_out) {
  if (mode_ == Mode::kFlat) {
    shard_out = 0;
    return *flat_scheduler_;
  }
  schedulers_.push_back(std::make_unique<EventScheduler>());
  shard_out = runner_.AddShard(*schedulers_.back());
  return *schedulers_.back();
}

ServiceNode& TopologyBuilder::AddServiceNode(Service& service) {
  usize shard = 0;
  EventScheduler& scheduler = NewScheduler(shard);
  nodes_.push_back(std::make_unique<ServiceNode>(scheduler, service));
  node_shards_.push_back(shard);
  return *nodes_.back();
}

HubNode& TopologyBuilder::AddHub(usize ports) {
  if (hub_ != nullptr) {
    // Replacing it would destroy a hub whose links still deliver to it.
    Fatal("TopologyBuilder::AddHub", "one hub per topology");
  }
  EventScheduler& scheduler = NewScheduler(hub_shard_);
  hub_ = std::make_unique<HubNode>(scheduler, ports);
  return *hub_;
}

SimHost& TopologyBuilder::AddHost(const HostSpec& spec) {
  usize shard = 0;
  EventScheduler& scheduler = NewScheduler(shard);
  hosts_.push_back(std::make_unique<SimHost>(scheduler, spec.name, spec.mac, spec.ip));
  host_shards_.push_back(shard);
  uplinks_.push_back(nullptr);
  return *hosts_.back();
}

usize TopologyBuilder::HostIndex(const SimHost& host) const {
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].get() == &host) {
      return i;
    }
  }
  Fatal("TopologyBuilder::HostIndex", "host '%s' not owned by this builder",
        host.name().c_str());
}

Link& TopologyBuilder::MakeUplink(SimHost& host, const StarTopologyConfig& config) {
  // The link lives on the host's scheduler, host on end A — the StarTopology
  // convention every shape (and ChaosDirector's gate scheduling) relies on.
  links_.push_back(std::make_unique<Link>(host.scheduler(), config.link_bits_per_second,
                                          config.link_delay));
  Link& link = *links_.back();
  host.AttachUplink(&link, /*is_end_a=*/true);
  uplinks_[HostIndex(host)] = &link;
  return link;
}

void TopologyBuilder::RouteBothWays(Link& link, usize host_shard, usize peer_shard) {
  if (mode_ == Mode::kFlat) {
    return;
  }
  runner_.ConnectDirection(link, /*to_b=*/true, host_shard, peer_shard);
  runner_.ConnectDirection(link, /*to_b=*/false, peer_shard, host_shard);
}

Link& TopologyBuilder::LinkHostToNode(SimHost& host, ServiceNode& node, u8 port,
                                      const StarTopologyConfig& config) {
  const usize host_index = HostIndex(host);
  usize node_index = 0;
  while (node_index < nodes_.size() && nodes_[node_index].get() != &node) {
    ++node_index;
  }
  if (node_index == nodes_.size()) {
    Fatal("TopologyBuilder::LinkHostToNode", "node not owned by this builder");
  }
  Link& link = MakeUplink(host, config);
  node.AttachPort(port, &link, /*is_end_a=*/false);
  RouteBothWays(link, host_shards_[host_index], node_shards_[node_index]);
  return link;
}

Link& TopologyBuilder::LinkHostToHub(SimHost& host, HubNode& hub, usize port,
                                     const StarTopologyConfig& config) {
  if (&hub != hub_.get()) {
    Fatal("TopologyBuilder::LinkHostToHub", "hub not owned by this builder");
  }
  const usize host_index = HostIndex(host);
  Link& link = MakeUplink(host, config);
  hub.AttachPort(port, &link, /*is_end_a=*/false);
  RouteBothWays(link, host_shards_[host_index], hub_shard_);
  return link;
}

void TopologyBuilder::EnableLinkImpairment(Link& link, FaultRegistry& registry,
                                           const std::string& prefix) {
  // Distinct per-direction prefixes: each direction's points are sampled on
  // its own sending shard, in that shard's event order, which is what lets
  // impairment compose with cross-shard routing (a shared point would draw
  // in the order the runner interleaves the two sending shards).
  link.EnableImpairment(/*to_b=*/true, registry, prefix + ".up");
  link.EnableImpairment(/*to_b=*/false, registry, prefix + ".down");
}

usize TopologyBuilder::EnableAllUplinkImpairment(FaultRegistry& registry,
                                                 const std::string& prefix) {
  usize enabled = 0;
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (uplinks_[i] == nullptr) {
      continue;
    }
    EnableLinkImpairment(*uplinks_[i], registry, prefix + "." + hosts_[i]->name());
    ++enabled;
  }
  return enabled;
}

u64 TopologyBuilder::Run(const ParallelRunOptions& opts) {
  if (mode_ == Mode::kFlat) {
    const u64 before = flat_scheduler_->executed();
    flat_scheduler_->Run(opts.max_events);
    return flat_scheduler_->executed() - before;
  }
  return runner_.Run(opts);
}

EventScheduler& TopologyBuilder::scheduler() {
  if (mode_ != Mode::kFlat) {
    Fatal("TopologyBuilder::scheduler", "a sharded topology has one scheduler per shard");
  }
  return *flat_scheduler_;
}

usize TopologyBuilder::FindHost(const std::string& name) const {
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->name() == name) {
      return i;
    }
  }
  return hosts_.size();
}

StarTopology::StarTopology(Service& service, std::vector<HostSpec> specs,
                           StarTopologyConfig config)
    : builder_(TopologyBuilder::Mode::kFlat) {
  ServiceNode& node = builder_.AddServiceNode(service);
  for (usize i = 0; i < specs.size(); ++i) {
    SimHost& host = builder_.AddHost(specs[i]);
    builder_.LinkHostToNode(host, node, static_cast<u8>(i), config);
  }
}

void StarTopology::Run(usize max_events) {
  ParallelRunOptions opts;
  opts.max_events = max_events;
  builder_.Run(opts);
}

ShardedTopology::ShardedTopology(Service& service, std::vector<HostSpec> specs,
                                 StarTopologyConfig config)
    : builder_(TopologyBuilder::Mode::kSharded) {
  ServiceNode& node = builder_.AddServiceNode(service);
  for (usize i = 0; i < specs.size(); ++i) {
    SimHost& host = builder_.AddHost(specs[i]);
    builder_.LinkHostToNode(host, node, static_cast<u8>(i), config);
  }
}

ShardedTopology::ShardedTopology(const std::vector<Service*>& services,
                                 std::vector<HostSpec> specs, StarTopologyConfig config)
    : builder_(TopologyBuilder::Mode::kSharded) {
  if (services.size() != specs.size()) {
    Fatal("ShardedTopology::ShardedTopology", "%zu services for %zu hosts", services.size(),
          specs.size());
  }
  for (usize i = 0; i < specs.size(); ++i) {
    if (services[i] == nullptr) {
      Fatal("ShardedTopology::ShardedTopology", "service %zu is null", i);
    }
    ServiceNode& node = builder_.AddServiceNode(*services[i]);
    SimHost& host = builder_.AddHost(specs[i]);
    builder_.LinkHostToNode(host, node, /*port=*/0, config);
  }
}

HubTopology::HubTopology(std::vector<HostSpec> specs, StarTopologyConfig config)
    : builder_(TopologyBuilder::Mode::kSharded) {
  HubNode& hub = builder_.AddHub(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    SimHost& host = builder_.AddHost(specs[i]);
    builder_.LinkHostToHub(host, hub, i, config);
  }
}

}  // namespace emu
