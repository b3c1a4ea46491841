// SWIM membership (emu-gossip) throughput benchmark.
//
// Sweeps a gossip cluster over hosts x threads: every host of a HubTopology
// runs a SwimPeer for a fixed span of simulated time under a small chaos
// plan (one crash + restart, one partition window), and the wall time,
// executed events, conservative epochs, and parallel-vs-serial speedup are
// printed per cell. As in microbench_parallel, correctness gates timing:
// each parallel run must produce the bit-exact membership-event digest of
// its serial twin, or the binary exits nonzero regardless of speed.
//
//   --hosts N,N,...   cluster sizes to sweep (default 8,16,32)
//   --threads N,N,... thread counts (default 1,2,4)
//   --run-ms N        simulated span per cell (default 100)
//   --seed N          base seed (default 1)
//   --json PATH       additionally write the sweep as BENCH_gossip.json
//   --check           run every cell kCheckRounds times, each round against
//                     its own serial twin, report median speedups, and fail
//                     when a parallel cell's median is below kSpeedupFloor
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/services/swim_service.h"
#include "src/sim/chaos.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

// One serial/parallel pair reads anywhere from 0.65x to 1.45x on a shared
// 4-vCPU host, so --check judges the median of this many rounds against a
// floor below that whole range: it catches a runner that loses half its
// speed to synchronisation, not host noise.
constexpr int kCheckRounds = 5;
constexpr double kSpeedupFloor = 0.5;

struct CellResult {
  double wall_seconds = 0;
  u64 events = 0;
  u64 epochs = 0;
  u64 digest = 0;
};

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

CellResult RunCell(usize hosts, usize threads, u64 run_ms, u64 seed) {
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
  HubTopology topo(specs, net);

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
  CellResult out;
  const auto t0 = std::chrono::steady_clock::now();
  out.events = topo.Run(opts);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.epochs = topo.runner().epochs();
  out.digest = kFnvOffset;
  for (const auto& peer : peers) {
    out.digest = (out.digest ^ peer->EventsDigest()) * kFnvPrime;
  }
  return out;
}

std::vector<usize> ParseList(const char* text) {
  std::vector<usize> values;
  usize current = 0;
  bool have = false;
  for (const char* p = text;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<usize>(*p - '0');
      have = true;
    } else {
      if (have) {
        values.push_back(current);
      }
      current = 0;
      have = false;
      if (*p == '\0') {
        break;
      }
    }
  }
  return values;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int Main(int argc, char** argv) {
  std::vector<usize> host_counts = {8, 16, 32};
  std::vector<usize> thread_counts = {1, 2, 4};
  u64 run_ms = 100;
  u64 seed = 1;
  std::string json_path;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      host_counts = ParseList(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = ParseList(argv[++i]);
    } else if (std::strcmp(argv[i], "--run-ms") == 0 && i + 1 < argc) {
      run_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--hosts 8,16] [--threads 1,4] [--run-ms N] [--seed N]"
                   " [--json PATH] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  const int rounds = check ? kCheckRounds : 1;

  std::printf("# SWIM gossip cluster, %llu ms simulated, seed %llu, median of %d round(s)\n",
              static_cast<unsigned long long>(run_ms),
              static_cast<unsigned long long>(seed), rounds);
  std::printf("%-8s %-8s %12s %10s %12s %10s %10s\n", "hosts", "threads", "events",
              "epochs", "wall_s", "Mev/s", "speedup");
  bool ok = true;
  bool fast_enough = true;
  std::string cells_json;
  for (usize hosts : host_counts) {
    std::vector<CellResult> cells(thread_counts.size());
    std::vector<std::vector<double>> walls(thread_counts.size());
    std::vector<std::vector<double>> speedups(thread_counts.size());
    for (int round = 0; round < rounds; ++round) {
      // Each round runs its own serial twin: the digest gate and the
      // speedup denominator.
      const CellResult serial = RunCell(hosts, 1, run_ms, seed);
      for (usize j = 0; j < thread_counts.size(); ++j) {
        const usize threads = thread_counts[j];
        const CellResult cell = threads == 1 ? serial : RunCell(hosts, threads, run_ms, seed);
        if (cell.digest != serial.digest) {
          std::fprintf(stderr,
                       "DIGEST DIVERGENCE hosts=%zu threads=%zu: %016llx != serial %016llx\n",
                       hosts, threads, static_cast<unsigned long long>(cell.digest),
                       static_cast<unsigned long long>(serial.digest));
          ok = false;
        }
        cells[j] = cell;
        walls[j].push_back(cell.wall_seconds);
        speedups[j].push_back(cell.wall_seconds > 0 ? serial.wall_seconds / cell.wall_seconds
                                                    : 0.0);
      }
    }
    for (usize j = 0; j < thread_counts.size(); ++j) {
      const usize threads = thread_counts[j];
      const CellResult& cell = cells[j];
      const double wall = Median(walls[j]);
      const double speedup = Median(speedups[j]);
      const double events_per_sec = wall > 0 ? static_cast<double>(cell.events) / wall : 0.0;
      std::printf("%-8zu %-8zu %12llu %10llu %12.4f %10.2f %10.2f\n", hosts, threads,
                  static_cast<unsigned long long>(cell.events),
                  static_cast<unsigned long long>(cell.epochs), wall, events_per_sec / 1e6,
                  speedup);
      if (check && threads > 1 && speedup < kSpeedupFloor) {
        std::fprintf(stderr, "SLOW hosts=%zu threads=%zu: median speedup %.2fx < %.2fx\n",
                     hosts, threads, speedup, kSpeedupFloor);
        fast_enough = false;
      }
      if (!cells_json.empty()) {
        cells_json += ",\n";
      }
      cells_json += "    {\"hosts\": " + std::to_string(hosts) +
                    ", \"threads\": " + std::to_string(threads) +
                    ", \"events\": " + std::to_string(cell.events) +
                    ", \"epochs\": " + std::to_string(cell.epochs) +
                    ", \"wall_seconds\": " + bench::FormatJsonNumber(wall) +
                    ", \"events_per_sec\": " + bench::FormatJsonNumber(events_per_sec) +
                    ", \"speedup\": " + bench::FormatJsonNumber(speedup) +
                    ", \"speedup_min\": " +
                    bench::FormatJsonNumber(*std::min_element(speedups[j].begin(),
                                                              speedups[j].end())) +
                    ", \"speedup_max\": " +
                    bench::FormatJsonNumber(*std::max_element(speedups[j].begin(),
                                                              speedups[j].end())) +
                    "}";
    }
  }
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"benchmark\": \"gossip_cluster\",\n"
            "  \"workload\": {\"run_ms\": " +
                std::to_string(run_ms) + ", \"seed\": " + std::to_string(seed) +
                "},\n  \"rounds\": " + std::to_string(rounds) +
                ",\n  \"speedup_floor\": " +
                (check ? bench::FormatJsonNumber(kSpeedupFloor) : std::string("null")) +
                ",\n  \"cells\": [\n" + cells_json + "\n  ]\n}\n";
    if (!file) {
      std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel membership history diverged from serial\n");
    return 1;
  }
  if (!fast_enough) {
    std::fprintf(stderr, "FAIL: a parallel cell's median speedup is below %.2fx\n",
                 kSpeedupFloor);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
