// Google-benchmark microbenchmarks of the simulation substrate's hot paths:
// how fast the reproduction itself runs (not a paper table, but what bounds
// every table's wall-clock time).
//
// Besides the google-benchmark suite, `--throughput` runs the quiescence
// kernel's end-to-end throughput mode: one idle-heavy soak workload twice —
// exact per-edge stepping vs the fast path — verifying bit-exact egress and
// reporting cycles/sec for both plus the speedup. `--saturated` instead pins
// the loadgen at line rate (default one frame per 10 cycles, so fast-forward
// rarely fires) and runs the same two modes in five back-to-back rounds —
// verifying bit-exact egress and edge totals and reporting the median
// fast-over-exact speedup, the busy-path number emu-speed gates.
// `--json <path>` writes the
// result as BENCH_kernel.json; `--check <baseline.json>` compares the
// speedup ratio (machine-independent) against a committed baseline and fails
// on a >20% regression (`--saturated --check` reads the baseline's
// "saturated" section). `--compare <other.json>` compares absolute fast-path
// throughput against a same-machine run (e.g. an EMU_TRACE=OFF build) and
// fails on a regression beyond `--tolerance <pct>` (default 3%).
// `--profile-overhead` runs the saturated workload with kernel phase
// profiling off vs sampled (emu-pulse), verifies bit-exact egress, and fails
// when the sampled profiler costs more than `--tolerance <pct>` (default 5%)
// of throughput — the gate that keeps "profiling is cheap enough to leave
// on" true.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/fnv.h"
#include "src/common/wide_word.h"
#include "src/hdl/fifo.h"
#include "src/hdl/signal.h"
#include "src/ip/cam.h"
#include "src/ip/pearson_hash.h"
#include "src/net/checksum.h"
#include "src/net/ethernet.h"
#include "src/netfpga/axis.h"
#include "src/services/learning_switch.h"
#include "src/core/targets.h"

namespace emu {
namespace {

void BM_WideWordAdd(benchmark::State& state) {
  Word256 a(0x123456789abcdefULL);
  Word256 b = Word256::Max() >> 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a += b);
  }
}
BENCHMARK(BM_WideWordAdd);

void BM_WideWordShift(benchmark::State& state) {
  Word512 w = Word512::Max() >> 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w << 13);
  }
}
BENCHMARK(BM_WideWordShift);

void BM_PearsonHash64(benchmark::State& state) {
  std::vector<u8> key(static_cast<usize>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonHash64(key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PearsonHash64)->Arg(6)->Arg(64);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<u8> data(static_cast<usize>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InternetChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1514);

void BM_CamLookup(benchmark::State& state) {
  Simulator sim;
  Cam cam(sim, "cam", static_cast<usize>(state.range(0)), 48, 8);
  for (usize i = 0; i < cam.entries(); ++i) {
    cam.Write(i, 0x1000 + i, i);
  }
  sim.Step();
  u64 key = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.Lookup(key));
    key = 0x1000 + ((key + 1) % cam.entries());
  }
}
BENCHMARK(BM_CamLookup)->Arg(16)->Arg(256);

void BM_SimulatorStep(benchmark::State& state) {
  Simulator sim;
  Reg<u64> counter(sim, 0);
  struct Counter {
    static HwProcess Run(Reg<u64>& reg) {
      for (;;) {
        reg.Write(reg.Read() + 1);
        co_await Pause();
      }
    }
  };
  for (int i = 0; i < state.range(0); ++i) {
    sim.AddProcess(Counter::Run(counter), "p");
  }
  for (auto _ : state) {
    sim.Step();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorStep)->Arg(1)->Arg(16);

void BM_AxisRoundTrip(benchmark::State& state) {
  Packet packet(static_cast<usize>(state.range(0)));
  for (auto _ : state) {
    auto words = PacketToAxis(packet);
    benchmark::DoNotOptimize(AxisToPacket(words));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AxisRoundTrip)->Arg(64)->Arg(1514);

void BM_SwitchForwardOneFrame(benchmark::State& state) {
  LearningSwitch service;
  FpgaTarget target(service);
  const MacAddress a = MacAddress::FromU48(0x020000000001);
  const MacAddress b = MacAddress::FromU48(0x020000000002);
  // Teach both MACs.
  target.Inject(0, MakeEthernetFrame(MacAddress::Broadcast(), a, EtherType::kIpv4, {}));
  target.Inject(1, MakeEthernetFrame(MacAddress::Broadcast(), b, EtherType::kIpv4, {}));
  target.Run(50'000);
  target.TakeEgress();
  for (auto _ : state) {
    auto reply =
        target.SendAndCollect(0, MakeEthernetFrame(b, a, EtherType::kIpv4, {}), 500'000);
    benchmark::DoNotOptimize(reply);
    target.TakeEgress();
  }
}
BENCHMARK(BM_SwitchForwardOneFrame);

// --- Quiescence-kernel throughput mode (--throughput) -----------------------------

struct ThroughputResult {
  double wall_seconds = 0;
  double cycles_per_sec = 0;
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;
  u64 egress_count = 0;
  u64 egress_digest = 0;
};

// Scheduler flavor for one workload run. kExact is the reference semantics
// (per-edge stepping, every parked predicate evaluated every edge); kFast is
// the default kernel with the quiescence fast path.
enum class RunMode { kExact, kFast };

// The soak shape: frames through the learning switch every `frame_gap`
// cycles. A large gap is the idle-heavy pattern chaos soaks spend their
// cycles in; a small gap (--saturated) keeps the pipeline busy so
// fast-forward never fires and the per-edge cost dominates.
ThroughputResult RunSoakWorkload(RunMode mode, u64 total_cycles, u64 frame_gap,
                                 ProfilingMode profiling = ProfilingMode::kOff) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(mode == RunMode::kFast);
  target.sim().SetProfilingMode(profiling);
  const MacAddress a = MacAddress::FromU48(0x020000000001);
  const MacAddress b = MacAddress::FromU48(0x020000000002);
  target.Inject(0, MakeEthernetFrame(MacAddress::Broadcast(), a, EtherType::kIpv4, {}));
  target.Inject(1, MakeEthernetFrame(MacAddress::Broadcast(), b, EtherType::kIpv4, {}));
  target.Run(50'000);
  target.TakeEgress();

  const auto start = std::chrono::steady_clock::now();
  for (u64 cycle = 0; cycle < total_cycles; cycle += frame_gap) {
    target.Inject(0, MakeEthernetFrame(b, a, EtherType::kIpv4, {}));
    target.Run(std::min(frame_gap, total_cycles - cycle));
  }
  const auto stop = std::chrono::steady_clock::now();

  ThroughputResult result;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.cycles_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(total_cycles) / result.wall_seconds : 0;
  const SimProfile profile = target.sim().ProfileReport();
  result.edges_run = profile.edges_run;
  result.cycles_fast_forwarded = profile.cycles_fast_forwarded;
  u64 digest = fnv::kOffset;
  for (const EgressFrame& frame : target.TakeEgress()) {
    digest = fnv::Bytes(fnv::Mix(digest, frame.port), frame.frame.bytes());
    ++result.egress_count;
  }
  result.egress_digest = digest;
  return result;
}

// One mode's result object: `{"cycles_per_sec": ..., "wall_seconds": ...,
// "edges_run": ...[, "cycles_fast_forwarded": ...]}`. Doubles go through
// std::to_chars (bench_json.h) and integers through std::to_string, so the
// output is locale-independent — the iostream formatting this replaces
// followed the global locale's decimal separator and digit grouping.
std::string ResultJson(const ThroughputResult& result, bool with_fast_forward) {
  std::string out = "{\"cycles_per_sec\": " + bench::FormatJsonNumber(result.cycles_per_sec) +
                    ", \"wall_seconds\": " + bench::FormatJsonNumber(result.wall_seconds) +
                    ", \"edges_run\": " + std::to_string(result.edges_run);
  if (with_fast_forward) {
    out += ", \"cycles_fast_forwarded\": " + std::to_string(result.cycles_fast_forwarded);
  }
  out += "}";
  return out;
}

std::string ThroughputJson(const ThroughputResult& exact, const ThroughputResult& fast,
                           u64 total_cycles, u64 frame_gap) {
  const double speedup =
      exact.cycles_per_sec > 0 ? fast.cycles_per_sec / exact.cycles_per_sec : 0;
  return "{\n"
         "  \"benchmark\": \"kernel_throughput\",\n"
         "  \"workload\": {\"service\": \"learning_switch\", \"cycles\": " +
         std::to_string(total_cycles) + ", \"frame_gap\": " + std::to_string(frame_gap) +
         "},\n"
         "  \"exact\": " + ResultJson(exact, false) +
         ",\n"
         "  \"fast\": " + ResultJson(fast, true) +
         ",\n"
         "  \"speedup\": " + bench::FormatJsonNumber(speedup) + "\n}\n";
}

// The saturated busy-path flavor: same schema shape, nested under a
// "saturated" key so a combined baseline file can hold both the idle
// ("kernel_throughput") and saturated sections side by side.
std::string SaturatedJson(const ThroughputResult& exact, const ThroughputResult& fast,
                          u64 total_cycles, u64 frame_gap) {
  const double speedup = exact.cycles_per_sec > 0 ? fast.cycles_per_sec / exact.cycles_per_sec : 0;
  return "{\n"
         "  \"benchmark\": \"kernel_throughput_saturated\",\n"
         "  \"saturated\": {\n"
         "    \"workload\": {\"service\": \"learning_switch\", \"cycles\": " +
         std::to_string(total_cycles) + ", \"frame_gap\": " + std::to_string(frame_gap) +
         "},\n"
         "    \"exact\": " + ResultJson(exact, false) +
         ",\n"
         "    \"fast\": " + ResultJson(fast, true) +
         ",\n"
         "    \"speedup\": " + bench::FormatJsonNumber(speedup) +
         "\n  }\n}\n";
}

int ThroughputMain(u64 total_cycles, u64 frame_gap, const std::string& json_path,
                   const std::string& baseline_path, const std::string& compare_path,
                   double tolerance_pct) {
  std::printf("kernel throughput: %llu cycles, one frame per %llu cycles\n",
              static_cast<unsigned long long>(total_cycles),
              static_cast<unsigned long long>(frame_gap));
  const ThroughputResult exact = RunSoakWorkload(RunMode::kExact, total_cycles, frame_gap);
  const ThroughputResult fast = RunSoakWorkload(RunMode::kFast, total_cycles, frame_gap);

  if (fast.egress_digest != exact.egress_digest || fast.egress_count != exact.egress_count) {
    std::printf("FAIL: fast path diverged from exact (egress %llu/%016llx vs %llu/%016llx)\n",
                static_cast<unsigned long long>(fast.egress_count),
                static_cast<unsigned long long>(fast.egress_digest),
                static_cast<unsigned long long>(exact.egress_count),
                static_cast<unsigned long long>(exact.egress_digest));
    return 1;
  }

  const double speedup =
      exact.cycles_per_sec > 0 ? fast.cycles_per_sec / exact.cycles_per_sec : 0;
  std::printf("  exact: %.3g cycles/sec (%llu edges)\n", exact.cycles_per_sec,
              static_cast<unsigned long long>(exact.edges_run));
  std::printf("  fast:  %.3g cycles/sec (%llu edges + %llu fast-forwarded)\n",
              fast.cycles_per_sec, static_cast<unsigned long long>(fast.edges_run),
              static_cast<unsigned long long>(fast.cycles_fast_forwarded));
  std::printf("  speedup: %.2fx (egress bit-exact, %llu frames)\n", speedup,
              static_cast<unsigned long long>(fast.egress_count));

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << ThroughputJson(exact, fast, total_cycles, frame_gap);
    if (!file) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::printf("FAIL: could not read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    double baseline_speedup = 0;
    if (!bench::ExtractJsonNumber(buffer.str(), "speedup", &baseline_speedup)) {
      std::printf("FAIL: no \"speedup\" in baseline %s\n", baseline_path.c_str());
      return 1;
    }
    // The speedup ratio is machine-independent (both runs share the host),
    // so it is the number a perf gate can hold steady across CI runners.
    const double floor = baseline_speedup * 0.8;
    std::printf("  baseline speedup %.2fx, regression floor %.2fx\n", baseline_speedup, floor);
    if (speedup < floor) {
      std::printf("FAIL: speedup %.2fx regressed more than 20%% from baseline %.2fx\n", speedup,
                  baseline_speedup);
      return 1;
    }
    std::printf("  perf gate passed\n");
  }

  if (!compare_path.empty()) {
    // Absolute-throughput comparison against a same-machine baseline JSON,
    // e.g. an EMU_TRACE=OFF build vs a compiled-in-but-detached build. Unlike
    // --check's speedup ratio, this gate only makes sense when both runs
    // executed on the same host within the same CI job.
    std::ifstream file(compare_path);
    if (!file) {
      std::printf("FAIL: could not read comparison baseline %s\n", compare_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    double base_fast = 0;
    if (!bench::ExtractJsonNumberInSection(buffer.str(), "fast", "cycles_per_sec", &base_fast) ||
        base_fast <= 0) {
      std::printf("FAIL: no fast.cycles_per_sec in %s\n", compare_path.c_str());
      return 1;
    }
    const double floor = base_fast * (1.0 - tolerance_pct / 100.0);
    std::printf("  compare: fast path %.3g cycles/sec vs baseline %.3g (floor %.3g, -%g%%)\n",
                fast.cycles_per_sec, base_fast, floor, tolerance_pct);
    if (fast.cycles_per_sec < floor) {
      std::printf("FAIL: fast-path throughput regressed more than %g%% vs %s\n", tolerance_pct,
                  compare_path.c_str());
      return 1;
    }
    std::printf("  overhead gate passed\n");
  }
  return 0;
}

// --- Saturated busy-path mode (--saturated) ---------------------------------------

bool DigestsMatch(const char* name, const ThroughputResult& got, const ThroughputResult& want) {
  if (got.egress_digest == want.egress_digest && got.egress_count == want.egress_count) {
    return true;
  }
  std::printf("FAIL: %s diverged from exact (egress %llu/%016llx vs %llu/%016llx)\n", name,
              static_cast<unsigned long long>(got.egress_count),
              static_cast<unsigned long long>(got.egress_digest),
              static_cast<unsigned long long>(want.egress_count),
              static_cast<unsigned long long>(want.egress_digest));
  return false;
}

// One exact/fast pair of ~0.25 s runs reads anywhere from 0.8x to 1.5x on a
// shared 4-thread host, so the gate takes the pair with the median ratio out
// of this many back-to-back pairs.
constexpr int kSaturatedRounds = 5;

int SaturatedMain(u64 total_cycles, u64 frame_gap, const std::string& json_path,
                  const std::string& baseline_path) {
  std::printf("kernel saturated throughput: %llu cycles, one frame per %llu cycles, "
              "median of %d rounds\n",
              static_cast<unsigned long long>(total_cycles),
              static_cast<unsigned long long>(frame_gap), kSaturatedRounds);
  struct Round {
    ThroughputResult exact;
    ThroughputResult fast;
    double speedup = 0;
  };
  std::vector<Round> rounds;
  for (int i = 0; i < kSaturatedRounds; ++i) {
    Round round;
    round.exact = RunSoakWorkload(RunMode::kExact, total_cycles, frame_gap);
    round.fast = RunSoakWorkload(RunMode::kFast, total_cycles, frame_gap);
    if (!DigestsMatch("fast path", round.fast, round.exact)) {
      return 1;
    }
    // Executed-edge accounting must also agree: every cycle is either run or
    // provably quiescent.
    if (round.fast.edges_run + round.fast.cycles_fast_forwarded != round.exact.edges_run) {
      std::printf("FAIL: edge accounting diverged (exact %llu, fast %llu+%llu)\n",
                  static_cast<unsigned long long>(round.exact.edges_run),
                  static_cast<unsigned long long>(round.fast.edges_run),
                  static_cast<unsigned long long>(round.fast.cycles_fast_forwarded));
      return 1;
    }
    round.speedup = round.exact.cycles_per_sec > 0
                        ? round.fast.cycles_per_sec / round.exact.cycles_per_sec
                        : 0;
    rounds.push_back(round);
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.speedup < b.speedup; });
  const Round& median = rounds[rounds.size() / 2];
  const ThroughputResult& exact = median.exact;
  const ThroughputResult& fast = median.fast;
  const double speedup = median.speedup;
  std::printf("  exact: %.3g cycles/sec (%llu edges)\n", exact.cycles_per_sec,
              static_cast<unsigned long long>(exact.edges_run));
  std::printf("  fast:  %.3g cycles/sec (%llu edges + %llu fast-forwarded)\n",
              fast.cycles_per_sec, static_cast<unsigned long long>(fast.edges_run),
              static_cast<unsigned long long>(fast.cycles_fast_forwarded));
  std::printf("  speedup: %.2fx fast over exact, rounds %.2f-%.2fx "
              "(egress bit-exact, %llu frames)\n",
              speedup, rounds.front().speedup, rounds.back().speedup,
              static_cast<unsigned long long>(fast.egress_count));

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << SaturatedJson(exact, fast, total_cycles, frame_gap);
    if (!file) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (!file) {
      std::printf("FAIL: could not read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    double baseline_speedup = 0;
    if (!bench::ExtractJsonNumberInSection(buffer.str(), "saturated", "speedup",
                                           &baseline_speedup)) {
      std::printf("FAIL: no saturated.speedup in baseline %s\n", baseline_path.c_str());
      return 1;
    }
    // Same machine-independent gate as --check for the idle workload: the
    // fast-over-exact ratio, held within 20% of the committed baseline.
    const double floor = baseline_speedup * 0.8;
    std::printf("  baseline saturated speedup %.2fx, regression floor %.2fx\n", baseline_speedup,
                floor);
    if (speedup < floor) {
      std::printf("FAIL: saturated speedup %.2fx regressed more than 20%% from baseline %.2fx\n",
                  speedup, baseline_speedup);
      return 1;
    }
    std::printf("  saturated perf gate passed\n");
  }
  return 0;
}

// --- Profiler overhead gate (--profile-overhead) ----------------------------------
//
// Saturated workload (per-edge cost dominates, the worst case for a per-edge
// profiler), best-of-3 per configuration to damp scheduler noise, profiling
// off vs sampled. The sampled mode times 1-in-64 edges, so its cost should
// amortize to noise; the gate fails when it exceeds `tolerance_pct`.
int ProfileOverheadMain(u64 total_cycles, u64 frame_gap, double tolerance_pct,
                        const std::string& json_path) {
  std::printf("profiler overhead: %llu cycles, one frame per %llu cycles, best of 3\n",
              static_cast<unsigned long long>(total_cycles),
              static_cast<unsigned long long>(frame_gap));
  ThroughputResult off, sampled;
  for (int round = 0; round < 3; ++round) {
    const ThroughputResult o =
        RunSoakWorkload(RunMode::kFast, total_cycles, frame_gap, ProfilingMode::kOff);
    const ThroughputResult s =
        RunSoakWorkload(RunMode::kFast, total_cycles, frame_gap, ProfilingMode::kSampled);
    if (round == 0) {
      off = o;
      sampled = s;
    } else {
      if (o.cycles_per_sec > off.cycles_per_sec) off = o;
      if (s.cycles_per_sec > sampled.cycles_per_sec) sampled = s;
    }
  }
  if (!DigestsMatch("sampled profiling run", sampled, off)) {
    return 1;
  }
  const double overhead_pct =
      off.cycles_per_sec > 0
          ? (1.0 - sampled.cycles_per_sec / off.cycles_per_sec) * 100.0
          : 0.0;
  std::printf("  profiling off:     %.3g cycles/sec\n", off.cycles_per_sec);
  std::printf("  profiling sampled: %.3g cycles/sec\n", sampled.cycles_per_sec);
  std::printf("  overhead: %.2f%% (gate: <= %g%%)\n", overhead_pct, tolerance_pct);

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << "{\n  \"benchmark\": \"kernel_profile_overhead\",\n"
            "  \"workload\": {\"service\": \"learning_switch\", \"cycles\": " +
                std::to_string(total_cycles) +
                ", \"frame_gap\": " + std::to_string(frame_gap) +
                "},\n"
                "  \"off\": " + ResultJson(off, true) +
                ",\n"
                "  \"sampled\": " + ResultJson(sampled, true) +
                ",\n"
                "  \"overhead_pct\": " + bench::FormatJsonNumber(overhead_pct) + "\n}\n";
    if (!file) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    // Bit-exactness was still enforced above; only the wall-clock ratio is
    // unreliable when the runner shares its single core with the CI agent.
    // Same rule as the parallel perf gate: shout, don't whisper.
    std::printf(
        "::warning::PROFILER OVERHEAD GATE SKIPPED — host has %u hardware threads (< 2); "
        "the measured %.2f%% overhead was NOT gated on this run\n",
        hw, overhead_pct);
    return 0;
  }
  if (overhead_pct > tolerance_pct) {
    std::printf("FAIL: sampled profiling costs %.2f%% > %g%% of throughput\n", overhead_pct,
                tolerance_pct);
    return 1;
  }
  std::printf("  profiler overhead gate passed\n");
  return 0;
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) {
  bool throughput = false;
  bool saturated = false;
  bool profile_overhead = false;
  emu::u64 cycles = 2'000'000;
  emu::u64 gap = 1'000;
  bool gap_set = false;
  bool tolerance_set = false;
  std::string json_path;
  std::string baseline_path;
  std::string compare_path;
  double tolerance_pct = 3.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--throughput") == 0) {
      throughput = true;
    } else if (std::strcmp(argv[i], "--saturated") == 0) {
      saturated = true;
    } else if (std::strcmp(argv[i], "--profile-overhead") == 0) {
      profile_overhead = true;
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--gap") == 0 && i + 1 < argc) {
      gap = std::strtoull(argv[++i], nullptr, 10);
      gap_set = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance_pct = std::strtod(argv[++i], nullptr);
      tolerance_set = true;
    }
  }
  if (profile_overhead) {
    // Saturated shape by default (worst case for a per-edge profiler); the
    // overhead gate defaults to 5% rather than --compare's 3%.
    if (!gap_set) {
      gap = 10;
    }
    if (gap == 0) {
      gap = 1;
    }
    return emu::ProfileOverheadMain(cycles, gap, tolerance_set ? tolerance_pct : 5.0, json_path);
  }
  if (saturated) {
    // Saturated busy path: frames arrive fast enough that quiescent windows
    // are rare, so the per-edge cost (not fast-forward) dominates.
    if (!gap_set) {
      gap = 10;
    }
    if (gap == 0) {
      gap = 1;
    }
    return emu::SaturatedMain(cycles, gap, json_path, baseline_path);
  }
  if (throughput) {
    if (gap == 0) {
      gap = 1;
    }
    return emu::ThroughputMain(cycles, gap, json_path, baseline_path, compare_path,
                               tolerance_pct);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
