// One benchmark run of one workload: set up once (timed from configuration or
// spec text to the first timed operation), then drive the open-loop load for
// --seconds of host wall time, drain, check every output, and print one JSON
// result line.
//
//   e2ebench --workload NAME --seed N --seconds S [--spec FILE] [--profile]
//   e2ebench --workload NAME --seed N --setup-only [--spec FILE]
//
// --setup-only stops after the set-up and reports only its time, so a caller
// can collect the cold set-up of several fresh processes. --profile
// (meaningful in the e2ebench_traced binary, which links the heap hooks)
// attaches SimProfile, RunnerPulse and heap counting for the timed phase and
// adds the per-layer values to the result; it also repeats the workload at
// threads=1 to measure shard-work inflation.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2ebench/heap_hooks.h"
#include "e2ebench/workloads.h"

namespace emu::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

struct Usage {
  double cpu_s = 0;
  u64 ctx_switches = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.ctx_switches = static_cast<u64>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (usize i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(v[i]);
  }
  return out + "]";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Builds one JSON object line field by field.
class JsonLine {
 public:
  void Field(const std::string& key, const std::string& value) {
    out_ += (out_.size() > 1 ? ", " : "") + Quote(key) + ": " + value;
  }
  std::string Close() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  std::string spec_path;
  bool profile = false;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Options& o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--spec" && has_value) {
      o.spec_path = argv[++i];
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && have_seed && (o.setup_only || o.seconds > 0);
}

// Default runner threads: 3 (4 OS threads with the coordinator), or nproc-1
// on a smaller host.
usize RunnerThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<usize>(std::clamp<long>(n - 1, 1, 3));
}

// CPU time the hypervisor gave to other guests while one of this host's
// vCPUs wanted to run, summed over all vCPUs (/proc/stat steal), in seconds;
// 0 where /proc/stat cannot be read.
double StolenSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  u64 user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal) ||
      cpu != "cpu") {
    return 0;
  }
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct TimedResult {
  u64 ops = 0;
  double wall_s = 0;
  // Consecutive windows of at least kWindowS: operations completed, wall
  // seconds, and the share of the host's vCPU time the hypervisor stole.
  std::vector<u64> window_ops;
  std::vector<double> window_s;
  std::vector<double> window_stolen;
  usize steps = 0;
};

// Steps the workload until `seconds` of wall time (or `max_steps`) elapse.
TimedResult RunTimed(Workload& w, double seconds, usize max_steps) {
  constexpr double kWindowS = 0.25;
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  TimedResult r;
  const u64 ops_before = w.completed();
  const Clock::time_point start = Clock::now();
  Clock::time_point window_start = start;
  u64 window_ops = w.completed();
  double window_stolen_s = StolenSeconds();
  for (;;) {
    NextHeapGeneration();
    w.Step();
    ++r.steps;
    const Clock::time_point now = Clock::now();
    const double window = Seconds(now - window_start);
    if (window >= kWindowS) {
      const double stolen_s = StolenSeconds();
      r.window_ops.push_back(w.completed() - window_ops);
      r.window_s.push_back(window);
      r.window_stolen.push_back((stolen_s - window_stolen_s) / (window * cpus));
      window_start = now;
      window_ops = w.completed();
      window_stolen_s = stolen_s;
    }
    if (Seconds(now - start) >= seconds || r.steps >= max_steps) {
      r.wall_s = Seconds(now - start);
      break;
    }
  }
  r.ops = w.completed() - ops_before;
  return r;
}

// Throughput over the timed phase: operations per wall-second over the
// windows in which the host took the least CPU time away from this guest.
// A window is kept when the hypervisor stole at most kMaxStolenShare of all
// vCPU time in it, or no more than in the run's least-stolen quarter of
// windows (so a run under steal throughout still keeps its cleanest part).
// Windows the program itself makes slow (pool growth, rehash, drains, a slow
// epoch class) are kept at their full length. A run shorter than a window
// uses the whole timed phase.
double SteadyRate(const TimedResult& r, usize& kept) {
  constexpr double kMaxStolenShare = 0.01;
  kept = 0;
  if (r.window_ops.empty()) {
    return r.wall_s > 0 ? static_cast<double>(r.ops) / r.wall_s : 0;
  }
  std::vector<double> stolen = r.window_stolen;
  std::sort(stolen.begin(), stolen.end());
  const double limit = std::max(kMaxStolenShare, stolen[(stolen.size() - 1) / 4]);
  u64 ops = 0;
  double wall_s = 0;
  for (usize i = 0; i < r.window_ops.size(); ++i) {
    if (r.window_stolen[i] <= limit) {
      ops += r.window_ops[i];
      wall_s += r.window_s[i];
      ++kept;
    }
  }
  return static_cast<double>(ops) / wall_s;
}

struct SetupTimes {
  double total_s = 0;
  double build_s = 0;
  double warm_s = 0;
  double stolen_s = 0;  // host steal over all vCPUs during the set-up
};

// Configuration or spec text -> first timed operation, timed once.
std::unique_ptr<Workload> SetUp(const Options& o, const WorkloadConfig& config,
                                SetupTimes& times) {
  WorkloadConfig run_config = config;
  run_config.profile = o.profile;
  const double stolen_before = StolenSeconds();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, run_config);
  const bool built = w->Build();
  const Clock::time_point t1 = Clock::now();
  const bool warmed = built && w->Warm();
  const Clock::time_point t2 = Clock::now();
  if (!warmed) {
    std::fprintf(stderr, "set-up failed: %s\n", w->error().c_str());
    return nullptr;
  }
  times = {Seconds(t2 - t0), Seconds(t1 - t0), Seconds(t2 - t1),
           StolenSeconds() - stolen_before};
  return w;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N (--seconds S | --setup-only)"
                 " [--spec FILE] [--profile]\n",
                 argv[0]);
    return 2;
  }
  WorkloadConfig config;
  config.seed = o.seed;
  config.threads = RunnerThreads();
  if (o.workload == "chain_pipeline") {
    std::ifstream file(o.spec_path);
    if (!file) {
      std::fprintf(stderr, "cannot read spec '%s'\n", o.spec_path.c_str());
      return 2;
    }
    std::stringstream text;
    text << file.rdbuf();
    config.spec_text = text.str();
  }
  if (MakeWorkload(o.workload, config) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  SetupTimes setup;
  std::unique_ptr<Workload> w = SetUp(o, config, setup);
  if (w == nullptr) {
    return 1;
  }
  if (o.setup_only) {
    JsonLine out;
    out.Field("setup_s", Num(setup.total_s));
    out.Field("setup.build_s", Num(setup.build_s));
    out.Field("setup.warm_s", Num(setup.warm_s));
    out.Field("setup_stolen_s", Num(setup.stolen_s));
    std::printf("%s\n", out.Close().c_str());
    return 0;
  }

  const Usage usage_before = Usage::Now();
  const HeapCounts heap_before = ReadHeapCounts();
  SetHeapCounting(o.profile);
  const TimedResult timed = RunTimed(*w, o.seconds, static_cast<usize>(-1));
  SetHeapCounting(false);
  const HeapCounts heap_after = ReadHeapCounts();
  const Usage usage_after = Usage::Now();
  w->Finish();

  const bool is_switch = o.workload == "switch_line_rate";
  const usize runner_threads = is_switch ? 1 : config.threads;
  const double ops = static_cast<double>(timed.ops);
  const double cpu_s = usage_after.cpu_s - usage_before.cpu_s;
  usize windows_kept = 0;
  const double ops_per_s = SteadyRate(timed, windows_kept);

  LayerReport layers;
  if (o.profile) {
    w->CollectLayers(ops, layers);
    if (!HeapHooksLinked()) {
      layers.unavailable["net."] = "binary built without the heap hooks";
    } else {
      const auto per_op = [ops](u64 v) { return ops > 0 ? static_cast<double>(v) / ops : 0; };
      layers.values["net.allocs_per_op"] = per_op(heap_after.allocs - heap_before.allocs);
      layers.values["net.alloc_bytes_per_op"] = per_op(heap_after.bytes - heap_before.bytes);
      layers.values["net.remote_frees_per_op"] =
          per_op(heap_after.remote_frees - heap_before.remote_frees);
    }
    // Shard-work inflation: shard work per event at `threads` over the same
    // workload run serially (the same seed, as many steps, at most as long).
    if (layers.values.contains("sim.events")) {
      WorkloadConfig serial_config = config;
      serial_config.threads = 1;
      serial_config.profile = true;
      std::unique_ptr<Workload> serial = MakeWorkload(o.workload, serial_config);
      if (serial->Build() && serial->Warm()) {
        const TimedResult s = RunTimed(*serial, o.seconds, timed.steps);
        serial->Finish();
        LayerReport serial_layers;
        serial->CollectLayers(static_cast<double>(s.ops), serial_layers);
        const auto work_per_event = [](const LayerReport& r) {
          const double events = r.values.at("sim.events");
          return events > 0 ? r.values.at("sim.runner.shard_work_ns") / events : 0.0;
        };
        const double serial_work = work_per_event(serial_layers);
        layers.values["sim.runner.work_inflation"] =
            serial_work > 0 ? work_per_event(layers) / serial_work : 0;
      } else {
        layers.unavailable["sim.runner.work_inflation"] = "threads=1 set-up failed";
      }
    }
  }

  const bool correct = w->failed() == 0 && timed.ops > 0;
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, w->Digest());

  JsonLine out;
  out.Field("workload", Quote(o.workload));
  out.Field("seed", std::to_string(o.seed));
  out.Field("seconds", Num(o.seconds));
  out.Field("threads", std::to_string(runner_threads));
  out.Field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Field("compiler", Quote(E2E_COMPILER));
  out.Field("build_type", Quote(E2E_BUILD_TYPE));
  out.Field("emu_analysis", std::to_string(E2E_ANALYSIS));
  out.Field("emu_trace", std::to_string(E2E_TRACE));
  out.Field("traced", o.profile ? "true" : "false");
  out.Field("correct", correct ? "true" : "false");
  out.Field("attempted", std::to_string(w->attempted()));
  out.Field("completed", std::to_string(w->completed()));
  out.Field("failed", std::to_string(w->failed()));
  out.Field("late", std::to_string(w->late()));
  out.Field("digest", Quote(digest));
  out.Field("ops_timed", std::to_string(timed.ops));
  out.Field("timed_wall_s", Num(timed.wall_s));
  out.Field("windows", std::to_string(timed.window_ops.size()));
  out.Field("windows_kept", std::to_string(windows_kept));
  out.Field("ops_per_s", Num(ops_per_s));
  out.Field("ops_per_s_mean", Num(timed.wall_s > 0 ? ops / timed.wall_s : 0));
  std::vector<double> window_rates;
  for (usize i = 0; i < timed.window_ops.size(); ++i) {
    window_rates.push_back(static_cast<double>(timed.window_ops[i]) / timed.window_s[i]);
  }
  out.Field("window_rates", NumList(window_rates));
  out.Field("window_stolen_share", NumList(timed.window_stolen));
  out.Field("setup_s", Num(setup.total_s));
  out.Field("setup.build_s", Num(setup.build_s));
  out.Field("setup.warm_s", Num(setup.warm_s));
  out.Field("setup_stolen_s", Num(setup.stolen_s));
  out.Field("peak_rss_mb", Num(PeakRssMb()));
  out.Field("sim_rtt_p50_us", Num(w->rtt().QuantileUs(0.50)));
  out.Field("sim_rtt_p99_us", Num(w->rtt().QuantileUs(0.99)));
  out.Field("rtt_samples", std::to_string(w->rtt().count()));
  out.Field("host.cpu_s", Num(cpu_s));
  out.Field("host.cpu_util",
            Num(timed.wall_s > 0 ? cpu_s / timed.wall_s / static_cast<double>(runner_threads) : 0));
  out.Field("host.ctx_switches",
            std::to_string(usage_after.ctx_switches - usage_before.ctx_switches));
  if (o.profile) {
    JsonLine values;
    for (const auto& [name, value] : layers.values) {
      values.Field(name, Num(value));
    }
    out.Field("layers", values.Close());
    JsonLine missing;
    for (const auto& [prefix, why] : layers.unavailable) {
      missing.Field(prefix, Quote(why));
    }
    out.Field("unavailable", missing.Close());
  }
  std::string failures = "[";
  for (usize i = 0; i < w->failure_log().size(); ++i) {
    failures += (i > 0 ? ", " : "") + Quote(w->failure_log()[i]);
  }
  out.Field("failures", failures + "]");
  std::printf("%s\n", out.Close().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace emu::e2e

int main(int argc, char** argv) { return emu::e2e::Main(argc, argv); }
