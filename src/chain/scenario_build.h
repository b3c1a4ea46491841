// BuildScenario (emu-chain): turns a parsed ScenarioSpec into a live
// simulated world — the topology (via TopologyBuilder), the stage services
// (via the stage factory), and, when the spec declares chain edges, a wired
// ChainRuntime ready for SourceSend().
//
// Shapes:
//   hub     — every host on a hub port; stages placed on their named hosts
//             as chain nodes. The only shape that supports `chain` lines.
//   star    — exactly one stage: its service becomes the single ServiceNode,
//             all hosts around it (the classic soak shape).
//   cluster — one stage per host, in declaration order: stage i's service
//             node pairs with host i (the Table 4 side-by-side shape).
//
// When the spec sets `impair=<prefix>`, every host uplink gets per-direction
// impairment points `<prefix>.<host>.up.*` / `<prefix>.<host>.down.*`
// registered in the caller's FaultRegistry — composing link impairment with
// cross-shard routing (the per-direction Link contract).
#ifndef SRC_CHAIN_SCENARIO_BUILD_H_
#define SRC_CHAIN_SCENARIO_BUILD_H_

#include <memory>
#include <vector>

#include "src/chain/chain_runtime.h"
#include "src/chain/scenario_spec.h"
#include "src/common/status.h"
#include "src/sim/topology.h"

namespace emu {

class FaultRegistry;

struct Scenario {
  ScenarioSpec spec;
  TopologyBuilder topology;
  // Stage services in spec.stages order; the runtime holds raw pointers.
  std::vector<std::unique_ptr<Service>> services;
  ChainRuntime chain;       // wired iff has_chain
  bool has_chain = false;
  usize source_host = 0;    // topology host index of the chain source

  // Convenience: run the whole world to quiescence (or the event budget).
  u64 Run(const ParallelRunOptions& opts = {}) { return topology.Run(opts); }
};

// Validates chain shape (linear, sourced, queued) beyond what the parser
// checks, then builds. `registry` is required when spec.impair_prefix is set
// (InvalidArgument otherwise) and unused otherwise.
Expected<std::unique_ptr<Scenario>> BuildScenario(const ScenarioSpec& spec,
                                                  FaultRegistry* registry = nullptr);

// Parses then builds; parse diagnostics pass through verbatim.
Expected<std::unique_ptr<Scenario>> BuildScenarioFromText(const std::string& text,
                                                          FaultRegistry* registry = nullptr);

// The linear chain order as stage indices (head first), or InvalidArgument
// describing the violation (branch, cycle, disjoint chains, missing source).
// Exposed for chain_lint, which reports the same violations as findings.
Expected<std::vector<usize>> LinearChainOrder(const ScenarioSpec& spec);

}  // namespace emu

#endif  // SRC_CHAIN_SCENARIO_BUILD_H_
