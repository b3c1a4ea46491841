// In-network compute pipeline (emu-chain) throughput benchmark.
//
// Sweeps ScenarioSpec-built chains over pipeline x threads: a memaslap-style
// 90/10 GET/SET stream is paced through each pipeline from the source host,
// and the wall time, executed events, conservative epochs, and
// parallel-vs-serial speedup are printed per cell. As in microbench_gossip,
// correctness gates timing: each parallel run must reproduce the bit-exact
// chain counter digest of its serial twin, and every admitted request must
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

// One serial/parallel pair reads anywhere from 0.6x to 1.8x on a shared
// 4-vCPU host, so --check judges the median of this many rounds against a
// floor below that whole range: it catches a runner that loses half its
// speed to synchronisation, not host noise.
constexpr int kCheckRounds = 5;
constexpr double kSpeedupFloor = 0.5;

struct CellResult {
  bool ok = true;
  double wall_seconds = 0;
  u64 events = 0;
  u64 epochs = 0;
  u64 digest = 0;
  u64 attempts = 0;
  u64 shed = 0;
  u64 replies = 0;
};

CellResult RunCell(const Pipeline& pipeline, usize threads, usize requests,
                   u64 gap_us, u64 seed) {
  CellResult out;
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
  out.attempts = frames.size();

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
  out.shed = chain.source_shed();
  out.replies = chain.source_replies();

  std::vector<Finding> findings;
  chain.CollectFindings(findings);
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s\n", f.ToString().c_str());
    out.ok = false;
  }
  if (out.replies != out.attempts - out.shed) {
    std::fprintf(stderr, "FLOW pipeline=%s threads=%zu: %llu admitted, %llu replies\n",
                 pipeline.name, threads,
                 static_cast<unsigned long long>(out.attempts - out.shed),
                 static_cast<unsigned long long>(out.replies));
    out.ok = false;
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
  std::vector<usize> thread_counts = {1, 2, 4};
  usize requests = 400;
  u64 gap_us = 25;
  u64 seed = 1;
  std::string json_path;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = ParseList(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--gap-us") == 0 && i + 1 < argc) {
      gap_us = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads 1,4] [--requests N] [--gap-us N] [--seed N]"
                   " [--json PATH] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  const int rounds = check ? kCheckRounds : 1;

  std::printf("# chain pipelines, %zu requests (+%zu prewarm), gap %llu us, seed %llu, "
              "median of %d round(s)\n",
              requests, kPrewarmKeys, static_cast<unsigned long long>(gap_us),
              static_cast<unsigned long long>(seed), rounds);
  std::printf("%-24s %-8s %12s %10s %12s %10s %10s\n", "pipeline", "threads", "events",
              "epochs", "wall_s", "Mev/s", "speedup");
  bool ok = true;
  bool fast_enough = true;
  std::string cells_json;
  for (const Pipeline& pipeline : kPipelines) {
    std::vector<CellResult> cells(thread_counts.size());
    std::vector<std::vector<double>> walls(thread_counts.size());
    std::vector<std::vector<double>> speedups(thread_counts.size());
    for (int round = 0; round < rounds; ++round) {
      // Each round runs its own serial twin: the digest gate and the
      // speedup denominator.
      const CellResult serial = RunCell(pipeline, 1, requests, gap_us, seed);
      ok = ok && serial.ok;
      for (usize j = 0; j < thread_counts.size(); ++j) {
        const usize threads = thread_counts[j];
        const CellResult cell =
            threads == 1 ? serial : RunCell(pipeline, threads, requests, gap_us, seed);
        ok = ok && cell.ok;
        if (cell.digest != serial.digest) {
          std::fprintf(stderr,
                       "DIGEST DIVERGENCE pipeline=%s threads=%zu: %016llx != serial %016llx\n",
                       pipeline.name, threads, static_cast<unsigned long long>(cell.digest),
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
      std::printf("%-24s %-8zu %12llu %10llu %12.4f %10.2f %10.2f\n", pipeline.name,
                  threads, static_cast<unsigned long long>(cell.events),
                  static_cast<unsigned long long>(cell.epochs), wall, events_per_sec / 1e6,
                  speedup);
      if (check && threads > 1 && speedup < kSpeedupFloor) {
        std::fprintf(stderr, "SLOW pipeline=%s threads=%zu: median speedup %.2fx < %.2fx\n",
                     pipeline.name, threads, speedup, kSpeedupFloor);
        fast_enough = false;
      }
      if (!cells_json.empty()) {
        cells_json += ",\n";
      }
      cells_json += "    {\"pipeline\": \"" + std::string(pipeline.name) +
                    "\", \"threads\": " + std::to_string(threads) +
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
    file << "{\n  \"benchmark\": \"chain_pipelines\",\n"
            "  \"workload\": {\"requests\": " +
                std::to_string(requests) + ", \"prewarm\": " + std::to_string(kPrewarmKeys) +
                ", \"gap_us\": " + std::to_string(gap_us) +
                ", \"seed\": " + std::to_string(seed) +
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
    std::fprintf(stderr, "FAIL: chain pipeline diverged or lost flow\n");
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
