// SWIM membership (emu-gossip) throughput benchmark.
//
// Sweeps a gossip cluster over hosts x threads: every host of a hub topology
// runs a SwimPeer for a fixed span of simulated time under a small chaos
// plan (one crash + restart, one partition window), and the wall time,
// executed events, conservative epochs, and parallel-vs-serial speedup are
// printed per cell. Correctness gates timing (bench/runner_sweep.h): each
// parallel run must reproduce its serial twin's membership-event digest,
// events and epochs, or the binary exits nonzero regardless of speed.
//
//   --hosts N,N,...   cluster sizes to sweep (default 8,16,32)
//   --threads N,N,... thread counts (default 1,2,4)
//   --run-ms N        simulated span per cell (default 100)
//   --seed N          base seed (default 1)
//   --json PATH       additionally write the sweep as BENCH_gossip.json
//   --check           run every cell kCheckRounds times, each round against
//                     its own serial twin, report median speedups, and fail
//                     when a parallel cell's median is below kSpeedupFloor
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/flag_table.h"
#include "bench/runner_sweep.h"
#include "src/common/fnv.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/services/swim_service.h"
#include "src/sim/chaos.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

std::string ChaosPlan(usize hosts) {
  // Scale the campaign with the cluster: crash/restart the second host and
  // cut the first quarter off from the second quarter for 20 ms.
  std::string plan = "crash host=h1 at=20ms; restart host=h1 at=60ms";
  if (hosts >= 8) {
    const usize quarter = hosts / 4;
    std::string a;
    std::string b;
    for (usize i = 0; i < quarter; ++i) {
      a += (i == 0 ? "" : ",") + ("h" + std::to_string(2 + i));
      b += (i == 0 ? "" : ",") + ("h" + std::to_string(2 + quarter + i));
    }
    plan += "; partition {" + a + "}|{" + b + "} from=30ms to=50ms";
  }
  return plan;
}

bench::SweepRun RunCell(usize hosts, usize threads, u64 run_ms, u64 seed) {
  std::vector<SwimMember> members;
  std::vector<HostSpec> specs;
  for (usize i = 0; i < hosts; ++i) {
    SwimMember m{"h" + std::to_string(i),
                 MacAddress::FromU48(0x02'00'00'00'd0'00ull + i),
                 Ipv4Address(10, 0, static_cast<u8>(i >> 8), static_cast<u8>(i & 0xff))};
    specs.push_back(HostSpec{m.name, m.mac, m.ip});
    members.push_back(std::move(m));
  }
  StarTopologyConfig net;
  net.link_delay = 50 * kPicosPerMicro;
  TopologyBuilder topo;
  topo.BuildHub(specs, net);

  FaultRegistry registry(seed);
  ChaosDirector director(topo, &registry);
  const Expected<FaultPlan> plan = ParseFaultPlan(ChaosPlan(hosts));
  if (!plan.ok() || !director.Apply(*plan).ok()) {
    std::fprintf(stderr, "chaos plan rejected\n");
    std::exit(2);
  }

  SwimConfig config;
  config.run_until = static_cast<Picoseconds>(run_ms) * kPicosPerMilli;
  std::vector<std::unique_ptr<SwimPeer>> peers;
  for (usize i = 0; i < hosts; ++i) {
    peers.push_back(std::make_unique<SwimPeer>(
        topo.host(i), static_cast<u16>(i), members, config,
        seed ^ (0x9E37'79B9'7F4A'7C15ull * (i + 1))));
    peers.back()->Start();
  }

  ParallelRunOptions opts;
  opts.threads = threads;
  bench::SweepRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.events = topo.Run(opts);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.epochs = topo.runner().epochs();
  out.digest = fnv::kOffset;
  for (const auto& peer : peers) {
    out.digest = fnv::Mix(out.digest, peer->EventsDigest());
  }
  return out;
}

int Main(int argc, char** argv) {
  std::vector<usize> host_counts = {8, 16, 32};
  std::vector<usize> thread_counts = {1, 2, 4};
  u64 run_ms = 100;
  u64 seed = 1;
  std::string json_path;
  bool check = false;
  if (!bench::ParseFlags(argc, argv,
                         {{"--hosts", &host_counts},
                          {"--threads", &thread_counts},
                          {"--run-ms", &run_ms},
                          {"--seed", &seed},
                          {"--json", &json_path},
                          {"--check", &check}})) {
    std::fprintf(stderr,
                 "usage: %s [--hosts 8,16] [--threads 1,4] [--run-ms N] [--seed N]"
                 " [--json PATH] [--check]\n",
                 argv[0]);
    return 2;
  }
  const int rounds = check ? bench::kCheckRounds : 1;

  std::printf("# SWIM gossip cluster, %llu ms simulated, seed %llu, median of %d round(s)\n",
              static_cast<unsigned long long>(run_ms),
              static_cast<unsigned long long>(seed), rounds);
  bench::RunnerSweep sweep("hosts", 8, rounds, check);
  for (usize hosts : host_counts) {
    sweep.Row(std::to_string(hosts), std::to_string(hosts), thread_counts,
              [&](usize threads) { return RunCell(hosts, threads, run_ms, seed); });
  }
  return sweep.Finish(json_path, "gossip_cluster",
                      "{\"run_ms\": " + std::to_string(run_ms) +
                          ", \"seed\": " + std::to_string(seed) + "}");
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
