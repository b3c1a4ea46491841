// In-network compute pipeline (emu-chain) throughput benchmark.
//
// Sweeps ScenarioSpec-built chains over pipeline x threads: a memaslap-style
// 90/10 GET/SET stream is paced through each pipeline from the source host,
// and the wall time, executed events, conservative epochs, and
// parallel-vs-serial speedup are printed per cell. Correctness gates timing
// (bench/runner_sweep.h): each parallel run must reproduce its serial twin's
// chain counter digest, events and epochs, and every admitted request must
// return exactly one reply, or the binary exits nonzero regardless of speed.
//
//   --threads N,N,... thread counts (default 1,2,4)
//   --requests N      workload requests per cell (default 400)
//   --gap-us N        inter-request gap in simulated us (default 25)
//   --seed N          workload + fault seed (default 1)
//   --json PATH       additionally write the sweep as BENCH_chain.json
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
#include "src/chain/scenario_build.h"
#include "src/chain/stage_factory.h"
#include "src/fault/fault_registry.h"
#include "src/sim/memaslap.h"

namespace emu {
namespace {

struct Pipeline {
  const char* name;
  const char* spec;
};

// The two canonical shapes: the minimal two-stage chain and the chain_soak
// four-stage pipeline (filter on the cycle-accurate FPGA target).
constexpr Pipeline kPipelines[] = {
    {"nat-pool",
     "topology hub link_delay=1us\n"
     "host client mac=0x020000000c01 ip=192.168.1.10\n"
     "host h1\nhost h2\n"
     "stage nat  kind=nat       host=h1 target=cpu queue=16\n"
     "stage pool kind=memcached host=h2 target=cpu queue=32\n"
     "chain client -> nat -> pool\n"},
    {"filter-nat-cache-pool",
     "topology hub link_delay=2us\n"
     "host client mac=0x020000000c01 ip=192.168.1.10\n"
     "host h1\nhost h2\nhost h3\nhost h4\n"
     "stage filter kind=filter    host=h1 target=fpga queue=16\n"
     "stage nat    kind=nat       host=h2 target=cpu  queue=16\n"
     "stage cache  kind=l1cache   host=h3 target=cpu  queue=32 capacity=64\n"
     "stage pool   kind=memcached host=h4 target=cpu  queue=32\n"
     "chain client -> filter -> nat -> cache -> pool\n"},
};

constexpr usize kPrewarmKeys = 100;

bench::SweepRun RunCell(const Pipeline& pipeline, usize threads, u64 requests, u64 gap_us,
                        u64 seed) {
  bench::SweepRun out;
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText(pipeline.spec, &registry);
  if (!built.ok() || !(*built)->has_chain) {
    std::fprintf(stderr, "pipeline '%s' rejected: %s\n", pipeline.name,
                 built.ok() ? "no chain" : built.status().ToString().c_str());
    std::exit(2);
  }
  Scenario& scenario = **built;
  ChainRuntime& chain = scenario.chain;

  MemaslapConfig mc;
  const MemcachedConfig server = CanonicalMemcachedConfig();
  mc.server_mac = server.mac;
  mc.server_ip = server.ip;
  mc.client_ip = Ipv4Address(192, 168, 1, 10);
  mc.key_space = kPrewarmKeys;
  mc.seed = seed;
  MemaslapLoadgen gen(mc);
  std::vector<Packet> frames;
  for (usize i = 0; i < gen.prewarm_count(); ++i) {
    frames.push_back(gen.PrewarmFrame(i));
  }
  for (usize i = 0; i < requests; ++i) {
    frames.push_back(gen.WorkloadFrame(i));
  }
  const u64 attempts = frames.size();

  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  const Picoseconds gap = static_cast<Picoseconds>(gap_us) * kPicosPerMicro;
  for (usize i = 0; i < frames.size(); ++i) {
    clock.At(static_cast<Picoseconds>(i + 1) * gap,
             [&chain, frame = std::move(frames[i])]() mutable {
               chain.SourceSend(std::move(frame));
             });
  }

  ParallelRunOptions opts;
  opts.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  out.events = scenario.Run(opts);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.epochs = scenario.topology.runner().epochs();
  out.digest = chain.Digest();
  const u64 admitted = attempts - chain.source_shed();

  std::vector<Finding> findings;
  chain.CollectFindings(findings);
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s\n", f.ToString().c_str());
    out.ok = false;
  }
  if (chain.source_replies() != admitted) {
    std::fprintf(stderr, "FLOW pipeline=%s threads=%zu: %llu admitted, %llu replies\n",
                 pipeline.name, threads, static_cast<unsigned long long>(admitted),
                 static_cast<unsigned long long>(chain.source_replies()));
    out.ok = false;
  }
  return out;
}

int Main(int argc, char** argv) {
  std::vector<usize> thread_counts = {1, 2, 4};
  u64 requests = 400;
  u64 gap_us = 25;
  u64 seed = 1;
  std::string json_path;
  bool check = false;
  if (!bench::ParseFlags(argc, argv,
                         {{"--threads", &thread_counts},
                          {"--requests", &requests},
                          {"--gap-us", &gap_us},
                          {"--seed", &seed},
                          {"--json", &json_path},
                          {"--check", &check}})) {
    std::fprintf(stderr,
                 "usage: %s [--threads 1,4] [--requests N] [--gap-us N] [--seed N]"
                 " [--json PATH] [--check]\n",
                 argv[0]);
    return 2;
  }
  const int rounds = check ? bench::kCheckRounds : 1;

  std::printf("# chain pipelines, %llu requests (+%zu prewarm), gap %llu us, seed %llu, "
              "median of %d round(s)\n",
              static_cast<unsigned long long>(requests), kPrewarmKeys,
              static_cast<unsigned long long>(gap_us),
              static_cast<unsigned long long>(seed), rounds);
  bench::RunnerSweep sweep("pipeline", 24, rounds, check);
  for (const Pipeline& pipeline : kPipelines) {
    sweep.Row(pipeline.name, "\"" + std::string(pipeline.name) + "\"", thread_counts,
              [&](usize threads) { return RunCell(pipeline, threads, requests, gap_us, seed); });
  }
  return sweep.Finish(json_path, "chain_pipelines",
                      "{\"requests\": " + std::to_string(requests) +
                          ", \"prewarm\": " + std::to_string(kPrewarmKeys) +
                          ", \"gap_us\": " + std::to_string(gap_us) +
                          ", \"seed\": " + std::to_string(seed) + "}");
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
