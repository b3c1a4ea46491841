// ScenarioSpec: scenario authoring as data (emu-chain).
//
// A scenario spec is a parseable text format on the lexer every text grammar
// shares (src/common/text.h; DESIGN.md, "Text grammars"): one entry per line
// (or ';'-separated), '#' comments to end of line, strict decimal numbers,
// verbatim line-numbered diagnostics. It declares the whole
// simulated world that examples used to wire up by hand — topology shape,
// hosts, per-host service stages, and the chain edges that pipe one stage's
// egress into the next stage's ingress:
//
//   topology hub hosts=6 link_delay=500ns impair=link
//   host client ip=192.168.1.10 mac=0x020000000c01
//   stage filter kind=filter    host=h1 target=fpga queue=16
//   stage nat    kind=nat       host=h2 target=cpu  queue=16
//   stage cache  kind=l1cache   host=h3 target=cpu  queue=32
//   stage pool   kind=memcached host=h4 target=cpu  queue=32 cores=2
//   chain client -> filter -> nat -> cache -> pool
//
// `topology` picks the shape (star | cluster | hub) and link parameters;
// `hosts=N` auto-generates hosts h0..h{N-1} with the cluster-conventional
// MACs/IPs; explicit `host` lines append named hosts. A `stage` places one
// service (built by the stage factory, src/chain/stage_factory.h) on a host
// with a CPU-or-FPGA execution target and a bounded ingress queue — the
// placement knobs. `chain` declares edges between stages; its first element
// may name a host, which becomes the traffic source. `impair=` registers
// per-direction link impairment points (`<prefix>.<host>.up.drop`, ...) so a
// fault plan can impair individual link directions even across shard
// boundaries.
//
// Parsing validates syntax and intra-spec references; the deeper static
// checks (placement onto a crashed-only host, cycles without a queue, ...)
// live in src/chain/chain_lint.h and run under emu_lint as CHAINSPEC.
#ifndef SRC_CHAIN_SCENARIO_SPEC_H_
#define SRC_CHAIN_SCENARIO_SPEC_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/net/mac_address.h"

namespace emu {

enum class SpecTopology : u8 {
  kHub = 0,   // N hosts around a HubNode learning switch (chains live here)
  kStar,      // up to 4 hosts around one ServiceNode
  kCluster,   // one ServiceNode per host, side by side
};

const char* SpecTopologyName(SpecTopology shape);

enum class StageTarget : u8 {
  kCpu = 0,  // software semantics (CpuTarget), fixed per-frame service time
  kFpga,     // cycle-accurate NetFPGA pipeline (FpgaTarget)
};

const char* StageTargetName(StageTarget target);

struct SpecHost {
  std::string name;
  MacAddress mac;
  Ipv4Address ip;
  usize line = 0;  // spec line, for diagnostics
};

struct SpecStage {
  std::string name;
  std::string kind;  // stage-factory service kind ("nat", "l1cache", ...)
  std::string host;  // placement: which host runs this stage
  StageTarget target = StageTarget::kCpu;
  usize queue = 16;          // bounded ingress queue depth per direction
  Picoseconds delay = 10 * kPicosPerMicro;  // cpu-target per-frame service time
  // Kind-specific knobs the factory interprets (cores=2, capacity=8192, ...).
  std::vector<std::pair<std::string, std::string>> attrs;
  usize line = 0;
};

struct SpecEdge {
  std::string from;  // stage names; validated at end of parse
  std::string to;
  usize line = 0;
};

struct ScenarioSpec {
  SpecTopology topology = SpecTopology::kHub;
  u64 link_bits_per_second = 10'000'000'000ULL;
  Picoseconds link_delay = 500'000;  // 500 ns, the StarTopologyConfig default
  // When non-empty, every link gets per-direction impairment fault points
  // named `<prefix>.<host>.up.*` / `<prefix>.<host>.down.*`.
  std::string impair_prefix;
  std::string source_host;  // chain traffic source; empty when no chain
  std::vector<SpecHost> hosts;
  std::vector<SpecStage> stages;
  std::vector<SpecEdge> edges;
  usize topology_line = 0;

  // Index by name, or hosts.size() / stages.size() when absent.
  usize FindHost(const std::string& name) const;
  usize FindStage(const std::string& name) const;

  // Downstream / upstream neighbour of `stage` in the edge list, or
  // stages.size() when the stage is a chain endpoint. Linear chains only —
  // BuildScenario rejects anything else.
  usize Downstream(usize stage) const;
  usize Upstream(usize stage) const;
};

// The conventional auto-generated cluster host (also what `hosts=N` expands
// to): "h<i>", MAC 0x02'00'00'00'a0'00 + i, IP 10.0.0.(1+i).
SpecHost AutoHost(usize index);

// Parses a spec; errors carry the exact line: "scenario spec line N: <what>:
// <entry>". All intra-spec references (stage hosts, edge stages, the chain
// source) are validated before returning.
Expected<ScenarioSpec> ParseScenarioSpec(const std::string& text);

}  // namespace emu

#endif  // SRC_CHAIN_SCENARIO_SPEC_H_
