#include "src/chain/scenario_build.h"

#include "src/chain/stage_factory.h"
#include "src/fault/fault_registry.h"

namespace emu {

Expected<std::vector<usize>> LinearChainOrder(const ScenarioSpec& spec) {
  if (spec.edges.empty()) {
    return std::vector<usize>{};
  }
  if (spec.source_host.empty()) {
    return InvalidArgument("scenario spec: chain has no source host (start the chain "
                           "line with a host name)");
  }
  std::vector<usize> out_degree(spec.stages.size(), 0);
  std::vector<usize> in_degree(spec.stages.size(), 0);
  for (const SpecEdge& edge : spec.edges) {
    const usize from = spec.FindStage(edge.from);
    const usize to = spec.FindStage(edge.to);
    if (++out_degree[from] > 1) {
      return InvalidArgument("scenario spec line " + std::to_string(edge.line) +
                             ": stage '" + edge.from + "' has multiple downstream edges");
    }
    if (++in_degree[to] > 1) {
      return InvalidArgument("scenario spec line " + std::to_string(edge.line) +
                             ": stage '" + edge.to + "' has multiple upstream edges");
    }
  }
  usize head = spec.stages.size();
  usize chained = 0;
  for (usize i = 0; i < spec.stages.size(); ++i) {
    if (in_degree[i] + out_degree[i] == 0) {
      continue;  // standalone stage, not on the chain
    }
    ++chained;
    if (in_degree[i] == 0) {
      if (head != spec.stages.size()) {
        return InvalidArgument("scenario spec: disjoint chains (both '" +
                               spec.stages[head].name + "' and '" + spec.stages[i].name +
                               "' are chain heads)");
      }
      head = i;
    }
  }
  if (head == spec.stages.size()) {
    return InvalidArgument("scenario spec: chain edges form a cycle");
  }
  std::vector<usize> order;
  for (usize at = head; at != spec.stages.size(); at = spec.Downstream(at)) {
    order.push_back(at);
    if (order.size() > chained) {
      return InvalidArgument("scenario spec: chain edges form a cycle");
    }
  }
  if (order.size() != chained) {
    return InvalidArgument("scenario spec: disjoint chains (only " +
                           std::to_string(order.size()) + " of " + std::to_string(chained) +
                           " chained stages reachable from '" + spec.stages[head].name +
                           "')");
  }
  return order;
}

Expected<std::unique_ptr<Scenario>> BuildScenario(const ScenarioSpec& spec,
                                                  FaultRegistry* registry) {
  if (!spec.impair_prefix.empty() && registry == nullptr) {
    return InvalidArgument("scenario spec sets impair=" + spec.impair_prefix +
                           " but no FaultRegistry was provided");
  }
  const Expected<std::vector<usize>> order = LinearChainOrder(spec);
  if (!order.ok()) {
    return order.status();
  }
  if (!order->empty() && spec.topology != SpecTopology::kHub) {
    return InvalidArgument("scenario spec: chain lines require topology hub, not " +
                           std::string(SpecTopologyName(spec.topology)));
  }
  for (const usize i : *order) {
    if (spec.stages[i].queue == 0) {
      return InvalidArgument("scenario spec line " + std::to_string(spec.stages[i].line) +
                             ": chained stage '" + spec.stages[i].name +
                             "' has queue=0 and admits no traffic");
    }
  }
  switch (spec.topology) {
    case SpecTopology::kHub:
      break;
    case SpecTopology::kStar:
      if (spec.stages.size() != 1) {
        return InvalidArgument("scenario spec: topology star wants exactly 1 stage, got " +
                               std::to_string(spec.stages.size()));
      }
      if (spec.hosts.size() > kNetFpgaPortCount) {
        return InvalidArgument("scenario spec: topology star supports at most " +
                               std::to_string(kNetFpgaPortCount) + " hosts");
      }
      break;
    case SpecTopology::kCluster:
      if (spec.stages.size() != spec.hosts.size()) {
        return InvalidArgument("scenario spec: topology cluster wants one stage per host (" +
                               std::to_string(spec.stages.size()) + " stages, " +
                               std::to_string(spec.hosts.size()) + " hosts)");
      }
      break;
  }
  // Two chained stages on one host would be indistinguishable at ingress
  // (direction is classified by neighbour host MAC).
  for (usize a = 0; a + 1 < order->size(); ++a) {
    for (usize b = a + 1; b < order->size(); ++b) {
      if (spec.stages[(*order)[a]].host == spec.stages[(*order)[b]].host) {
        return InvalidArgument("scenario spec line " +
                               std::to_string(spec.stages[(*order)[b]].line) +
                               ": stages '" + spec.stages[(*order)[a]].name + "' and '" +
                               spec.stages[(*order)[b]].name + "' share host '" +
                               spec.stages[(*order)[b]].host + "'");
      }
    }
  }

  auto scenario = std::make_unique<Scenario>();
  scenario->spec = spec;
  StarTopologyConfig link_config;
  link_config.link_bits_per_second = spec.link_bits_per_second;
  link_config.link_delay = spec.link_delay;

  // Services first: construction errors should not leave a half-built world.
  for (const SpecStage& stage : spec.stages) {
    Expected<std::unique_ptr<Service>> service = MakeStageService(stage.kind, stage.attrs);
    if (!service.ok()) {
      return Status(service.status().code(),
                    "scenario spec line " + std::to_string(stage.line) + ": stage '" +
                        stage.name + "': " + service.status().message());
    }
    scenario->services.push_back(std::move(*service));
  }

  std::vector<HostSpec> hosts;
  for (const SpecHost& host : spec.hosts) {
    hosts.push_back({host.name, host.mac, host.ip});
  }
  TopologyBuilder& topo = scenario->topology;
  switch (spec.topology) {
    case SpecTopology::kHub:
      topo.BuildHub(hosts, link_config);
      break;
    case SpecTopology::kStar:
      topo.BuildStar(*scenario->services[0], hosts, link_config);
      break;
    case SpecTopology::kCluster: {
      std::vector<Service*> services;
      for (const std::unique_ptr<Service>& service : scenario->services) {
        services.push_back(service.get());
      }
      topo.BuildCluster(services, hosts, link_config);
      break;
    }
  }
  if (!spec.impair_prefix.empty()) {
    topo.EnableAllUplinkImpairment(*registry, spec.impair_prefix);
  }

  if (!order->empty()) {
    scenario->has_chain = true;
    scenario->source_host = topo.FindHost(spec.source_host);
    for (const usize i : *order) {
      const SpecStage& stage = spec.stages[i];
      ChainStageConfig config;
      config.name = stage.name;
      config.service = scenario->services[i].get();
      config.host = &topo.host(topo.FindHost(stage.host));
      config.target = stage.target;
      config.queue_depth = stage.queue;
      config.cpu_delay = stage.delay;
      scenario->chain.AddStage(config);
    }
    scenario->chain.SetSource(topo.host(scenario->source_host));
    scenario->chain.Wire();
  }
  return scenario;
}

Expected<std::unique_ptr<Scenario>> BuildScenarioFromText(const std::string& text,
                                                          FaultRegistry* registry) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(text);
  if (!spec.ok()) {
    return spec.status();
  }
  return BuildScenario(*spec, registry);
}

}  // namespace emu
