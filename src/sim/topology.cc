#include "src/sim/topology.h"

#include "src/common/fatal.h"
#include "src/fault/fault_registry.h"

namespace emu {

EventScheduler& TopologyBuilder::NewScheduler(usize& shard_out) {
  schedulers_.push_back(std::make_unique<EventScheduler>());
  shard_out = runner_.AddShard(*schedulers_.back());
  return *schedulers_.back();
}

ServiceNode& TopologyBuilder::BuildStar(Service& service, const std::vector<HostSpec>& hosts,
                                        const StarTopologyConfig& config) {
  ServiceNode& node = AddServiceNode(service);
  for (usize i = 0; i < hosts.size(); ++i) {
    LinkHostToNode(AddHost(hosts[i]), node, static_cast<u8>(i), config);
  }
  return node;
}

void TopologyBuilder::BuildCluster(const std::vector<Service*>& services,
                                   const std::vector<HostSpec>& hosts,
                                   const StarTopologyConfig& config) {
  if (services.size() != hosts.size()) {
    Fatal("TopologyBuilder::BuildCluster", "%zu services for %zu hosts", services.size(),
          hosts.size());
  }
  for (usize i = 0; i < hosts.size(); ++i) {
    if (services[i] == nullptr) {
      Fatal("TopologyBuilder::BuildCluster", "service %zu is null", i);
    }
    ServiceNode& node = AddServiceNode(*services[i]);
    LinkHostToNode(AddHost(hosts[i]), node, /*port=*/0, config);
  }
}

HubNode& TopologyBuilder::BuildHub(const std::vector<HostSpec>& hosts,
                                   const StarTopologyConfig& config) {
  HubNode& hub = AddHub(hosts.size());
  for (usize i = 0; i < hosts.size(); ++i) {
    LinkHostToHub(AddHost(hosts[i]), hub, i, config);
  }
  return hub;
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
  // The link lives on the host's scheduler, host on end A — the convention
  // every shape (and ChaosDirector's gate scheduling) relies on.
  links_.push_back(std::make_unique<Link>(host.scheduler(), config.link_bits_per_second,
                                          config.link_delay));
  Link& link = *links_.back();
  host.AttachUplink(&link, /*is_end_a=*/true);
  uplinks_[HostIndex(host)] = &link;
  return link;
}

void TopologyBuilder::RouteBothWays(Link& link, usize host_shard, usize peer_shard) {
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

usize TopologyBuilder::FindHost(const std::string& name) const {
  for (usize i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i]->name() == name) {
      return i;
    }
  }
  return hosts_.size();
}

}  // namespace emu
