// Parallel sharded-runner (emu-par) benchmark and CI gate.
//
// Default mode sweeps a Table-4-style memcached cluster (one ServiceNode +
// memaslap client per shard group) over nodes x threads and prints wall
// time, events, epochs, and the parallel-vs-serial speedup. Every parallel
// run is checked bit-exact against its serial twin before timing counts
// (bench/runner_sweep.h) — a divergence fails the binary regardless of speed.
//
//   --json <path>    write the 4-node serial-vs-parallel measurement as
//                    BENCH_parallel.json
//   --check <path>   perf gate against a committed baseline: on hosts with
//                    >= 4 hardware threads the median threads=4 speedup of
//                    kCheckRounds rounds, each against its own serial twin,
//                    must reach 2x (and stay within 20% of the baseline ratio
//                    when the baseline itself was measured on a multicore
//                    host). Hosts with fewer threads skip the gate:
//                    conservative epochs still run there, but wall-clock
//                    parallelism cannot. The JSON and the gate line also
//                    report host_capacity before and after the rounds: how
//                    many of 4 concurrent CPU loops the host ran at full
//                    speed. It says whether a FAIL had cores to use; it
//                    never passes, fails or skips the gate.
//   --requests N     workload requests per host (default 512)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/flag_table.h"
#include "bench/runner_sweep.h"
#include "src/common/fnv.h"
#include "src/services/memcached_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

// The Table-4 memcached setup, clustered: `nodes` independent memcached
// service nodes, each with its own memaslap client host — `nodes` link
// components, which the runner queues on its workers without a barrier
// between them. The inter-shard link delay is a cluster-interconnect 20 us,
// which is also the runner's lookahead — big windows, so each component
// epoch carries many request FSM executions.
bench::SweepRun RunCluster(usize nodes, usize threads, usize requests_per_host) {
  constexpr usize kKeySpace = 64;
  StarTopologyConfig topo_config;
  topo_config.link_delay = 20 * kPicosPerMicro;

  std::vector<std::unique_ptr<MemcachedService>> services;
  std::vector<Service*> service_ptrs;
  std::vector<HostSpec> specs;
  std::vector<MemcachedConfig> configs;
  for (usize i = 0; i < nodes; ++i) {
    MemcachedConfig config;
    config.mac = MacAddress::FromU48(0x02'00'00'00'ee'00ULL + i);
    config.ip = Ipv4Address(10, 0, 0, static_cast<u8>(200 + i));
    configs.push_back(config);
    services.push_back(std::make_unique<MemcachedService>(config));
    service_ptrs.push_back(services.back().get());
    specs.push_back({"c" + std::to_string(i),
                     MacAddress::FromU48(0x02'00'00'00'c1'00ULL + i),
                     Ipv4Address(10, 0, 0, static_cast<u8>(50 + i))});
  }
  TopologyBuilder topo;
  topo.BuildCluster(service_ptrs, specs, topo_config);

  std::vector<u64> digests(nodes, fnv::kOffset);
  std::vector<u64> replies(nodes, 0);
  for (usize i = 0; i < nodes; ++i) {
    topo.host(i).SetApp([&digests, &replies, i](SimHost& h, Packet frame) {
      digests[i] = fnv::Bytes(fnv::U64(digests[i], static_cast<u64>(h.scheduler().now())),
                              frame.bytes());
      ++replies[i];
    });
  }

  for (usize i = 0; i < nodes; ++i) {
    MemaslapConfig mc;
    mc.server_mac = configs[i].mac;
    mc.server_ip = configs[i].ip;
    mc.client_mac = specs[i].mac;
    mc.client_ip = specs[i].ip;
    mc.key_space = kKeySpace;
    mc.seed = 1000 + 17 * i;
    MemaslapLoadgen loadgen(mc);
    for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
      const Picoseconds at =
          5 * kPicosPerMicro + static_cast<Picoseconds>(k) * kPicosPerMicro;
      Packet frame = loadgen.PrewarmFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
    for (usize k = 0; k < requests_per_host; ++k) {
      const Picoseconds at = (100 + kKeySpace) * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * kPicosPerMicro;
      Packet frame = loadgen.WorkloadFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  bench::SweepRun result;
  const auto start = std::chrono::steady_clock::now();
  result.events = topo.Run({.threads = threads, .max_events = 100'000'000});
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.epochs = topo.runner().epochs();
  result.digest = fnv::kOffset;
  for (usize i = 0; i < nodes; ++i) {
    result.digest = fnv::U64(fnv::U64(result.digest, digests[i]), replies[i]);
  }
  result.digest = fnv::U64(result.digest, result.events);
  return result;
}

// --- Host capacity -------------------------------------------------------------------

// Wall seconds of one fixed pure-CPU loop: a dependent multiply-add chain
// that touches no memory (~25 ms on a 4-vCPU Xeon).
double TimeCpuLoop() {
  const auto start = std::chrono::steady_clock::now();
  u64 x = 1;
  for (u64 i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));  // keep every step of the chain
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The cores the host gives this process right now: 4 x the loop's time
// alone over the slowest of 4 concurrent copies. About 4 on an idle 4-core
// host, about 1 when other tenants hold the cores.
double HostCapacity() {
  constexpr usize kCopies = 4;
  const double alone = TimeCpuLoop();
  std::vector<double> copies(kCopies);
  std::vector<std::thread> threads;
  for (usize i = 0; i < kCopies; ++i) {
    threads.emplace_back([&copies, i] { copies[i] = TimeCpuLoop(); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return static_cast<double>(kCopies) * alone / *std::max_element(copies.begin(), copies.end());
}

struct HostCapacityReading {
  double before = 0;
  double after = 0;
};

// --- Sweep + JSON + gate -------------------------------------------------------------

constexpr usize kGateNodes = 4;

// True when this host cannot exercise wall-clock parallelism: the speedup
// number exists but means nothing, so the perf gate must not judge it.
bool GateSkippedOnHost() { return std::thread::hardware_concurrency() < 4; }

// `parallel` is the threads=4 cell of the gate point; its speedup is the
// median round's.
std::string MeasurementJson(usize requests, const bench::SweepCell& serial,
                            const bench::SweepCell& parallel,
                            const HostCapacityReading& capacity) {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool skipped = GateSkippedOnHost();
  std::string out;
  out += "{\n";
  out += "  \"benchmark\": \"parallel_sharded_runner\",\n";
  out += "  \"workload\": {\"service\": \"memcached_cluster\", \"nodes\": " +
         std::to_string(kGateNodes) + ", \"requests_per_host\": " + std::to_string(requests) +
         "},\n";
  out += "  \"host_threads\": " + std::to_string(hw) + ",\n";
  out += "  \"host_capacity\": {\"before\": " + bench::FormatJsonNumber(capacity.before) +
         ", \"after\": " + bench::FormatJsonNumber(capacity.after) + "},\n";
  out += "  \"gate_skipped\": " + std::string(skipped ? "true" : "false") + ",\n";
  out += "  \"gate_skip_reason\": \"" +
         std::string(skipped ? "host has fewer than 4 hardware threads" : "") + "\",\n";
  out += "  \"serial\": {\"wall_seconds\": " + bench::FormatJsonNumber(serial.wall_seconds) +
         ", \"events\": " + std::to_string(serial.events) +
         ", \"epochs\": " + std::to_string(serial.epochs) + "},\n";
  out += "  \"parallel\": {\"threads\": 4, \"wall_seconds\": " +
         bench::FormatJsonNumber(parallel.wall_seconds) +
         ", \"events\": " + std::to_string(parallel.events) +
         ", \"epochs\": " + std::to_string(parallel.epochs) + "},\n";
  out += "  \"rounds\": " + std::to_string(bench::kCheckRounds) + ",\n";
  out += "  \"speedup_min\": " + bench::FormatJsonNumber(parallel.speedup_min) + ",\n";
  out += "  \"speedup_max\": " + bench::FormatJsonNumber(parallel.speedup_max) + ",\n";
  out += "  \"speedup\": " + bench::FormatJsonNumber(parallel.speedup) + "\n}\n";
  return out;
}

int SweepMain(usize requests) {
  std::printf("parallel sharded runner: memcached cluster, %zu requests/host, %u hw threads\n",
              requests, std::thread::hardware_concurrency());
  bench::RunnerSweep sweep("nodes", 6, /*rounds=*/1, /*check=*/false);
  for (usize nodes : {1u, 2u, 4u}) {
    // Two shards per node: more workers than that are clamped, nothing new.
    const std::vector<usize> threads =
        nodes == 1 ? std::vector<usize>{1, 2} : std::vector<usize>{1, 2, 4};
    sweep.Row(std::to_string(nodes), std::to_string(nodes), threads,
              [nodes, requests](usize t) { return RunCluster(nodes, t, requests); });
  }
  if (!sweep.ok()) {
    std::printf("FAIL: a parallel run diverged from its serial twin\n");
    return 1;
  }
  std::printf("all parallel runs bit-exact against serial\n");
  return 0;
}

int GateMain(const bench::SweepCell& parallel, const HostCapacityReading& capacity,
             const std::string& baseline_path) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("  threads=4 median speedup %.2fx on %u hardware threads, host capacity "
              "%.2f before / %.2f after (of 4)\n",
              parallel.speedup, hw, capacity.before, capacity.after);
  if (GateSkippedOnHost()) {
    // Bit-exactness was still enforced above; only the wall-clock ratio is
    // meaningless without cores to run the shards on. Shout, don't whisper:
    // a silently-skipped gate looks identical to a passing one in CI logs,
    // which is how a real speedup regression once hid for several runs.
    std::printf(
        "::warning::PARALLEL PERF GATE SKIPPED — host has %u hardware threads (< 4); "
        "the threads=4 speedup floor was NOT enforced on this run\n",
        hw);
    std::printf("  ==============================================================\n");
    std::printf("  ==  PERF GATE SKIPPED: %u hardware threads (< 4 required)  ==\n", hw);
    std::printf("  ==  bit-exactness was checked; the speedup floor was not.  ==\n");
    std::printf("  ==============================================================\n");
    return 0;
  }
  double floor = 2.0;
  std::ifstream file(baseline_path);
  if (!file) {
    std::printf("FAIL: could not read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  double baseline_speedup = 0;
  double baseline_hw = 0;
  if (!bench::ExtractJsonNumber(buffer.str(), "speedup", &baseline_speedup) ||
      !bench::ExtractJsonNumber(buffer.str(), "host_threads", &baseline_hw)) {
    std::printf("FAIL: no \"speedup\"/\"host_threads\" in baseline %s\n",
                baseline_path.c_str());
    return 1;
  }
  // A baseline captured on a multicore host tightens the absolute 2x floor
  // to within 20% of its measured ratio; a single-core baseline (speedup
  // ~1x by construction) contributes nothing beyond the floor.
  if (baseline_hw >= 4) {
    floor = std::max(floor, baseline_speedup * 0.8);
  }
  std::printf("  baseline speedup %.2fx (on %.0f threads), gate floor %.2fx\n",
              baseline_speedup, baseline_hw, floor);
  if (parallel.speedup < floor) {
    std::printf("FAIL: median parallel speedup %.2fx below gate floor %.2fx\n",
                parallel.speedup, floor);
    return 1;
  }
  std::printf("  perf gate passed\n");
  return 0;
}

// The gate point: the 4-node cluster at threads=4 against its serial twin
// over kCheckRounds rounds (the microbench_kernel --saturated method, since
// one pair reads anywhere from 0.8x to 2.6x on a shared 4-vCPU host).
int GatePointMain(usize requests, const std::string& json_path,
                  const std::string& baseline_path) {
  HostCapacityReading capacity;
  capacity.before = HostCapacity();
  bench::RunnerSweep sweep("nodes", 6, bench::kCheckRounds, /*check=*/false);
  const std::vector<bench::SweepCell> cells =
      sweep.Row(std::to_string(kGateNodes), std::to_string(kGateNodes), {1, 4},
                [requests](usize threads) { return RunCluster(kGateNodes, threads, requests); });
  capacity.after = HostCapacity();
  if (!sweep.ok()) {
    std::printf("FAIL: threads=4 diverged from its serial twin\n");
    return 1;
  }
  const bench::SweepCell& serial = cells[0];
  const bench::SweepCell& parallel = cells[1];
  std::printf("4-node cluster: serial %.2f ms, threads=4 %.2f ms, speedup %.2fx "
              "(median of %d rounds, %.2f-%.2fx)\n",
              serial.wall_seconds * 1e3, parallel.wall_seconds * 1e3, parallel.speedup,
              bench::kCheckRounds, parallel.speedup_min, parallel.speedup_max);
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << MeasurementJson(requests, serial, parallel, capacity);
    if (!file) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return baseline_path.empty() ? 0 : GateMain(parallel, capacity, baseline_path);
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  emu::u64 requests = 512;
  if (!emu::bench::ParseFlags(argc, argv,
                              {{"--json", &json_path},
                               {"--check", &baseline_path},
                               {"--requests", &requests}})) {
    std::printf(
        "usage: microbench_parallel [--json <path>] [--check <baseline.json>]"
        " [--requests N]\n");
    return 2;
  }
  if (json_path.empty() && baseline_path.empty()) {
    return emu::SweepMain(requests);
  }
  return emu::GatePointMain(requests, json_path, baseline_path);
}
