// Determinism self-test for the benchmark's workloads. For each workload, a
// short run with a fixed seed and a fixed operation count must give
//   - equal digests, equal ops counts and equal simulated RTT quantiles at
//     threads=1 and threads=3, with no failed operation; and
//   - a different digest under a different seed, which proves the seed
//     reaches the generator.
//
//   e2ebench_selftest [SPEC_FILE]   (default: the repository's
//                                    specs/chain_soak.spec, located at
//                                    configure time)
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "e2ebench/workloads.h"

namespace emu::e2e {
namespace {

struct Outcome {
  bool ok = false;
  u64 digest = 0;
  u64 attempted = 0;
  u64 completed = 0;
  u64 failed = 0;
  double p50 = 0;
  double p99 = 0;
};

Outcome RunFixed(const std::string& name, const std::string& spec, u64 seed, usize threads,
                 u64 ops) {
  WorkloadConfig config;
  config.seed = seed;
  config.threads = threads;
  config.spec_text = spec;
  config.op_limit = ops;
  std::unique_ptr<Workload> w = MakeWorkload(name, config);
  Outcome out;
  if (!w->Build() || !w->Warm()) {
    std::printf("  %s: set-up failed: %s\n", name.c_str(), w->error().c_str());
    return out;
  }
  // A few chunked steps, then the drain: the same call sequence at every
  // thread count, as in a timed run.
  for (int i = 0; i < 3; ++i) {
    w->Step();
  }
  w->Finish();
  for (const std::string& line : w->failure_log()) {
    std::printf("  %s: %s\n", name.c_str(), line.c_str());
  }
  out.ok = true;
  out.digest = w->Digest();
  out.attempted = w->attempted();
  out.completed = w->completed();
  out.failed = w->failed();
  out.p50 = w->rtt().QuantileUs(0.50);
  out.p99 = w->rtt().QuantileUs(0.99);
  return out;
}

bool Same(const Outcome& a, const Outcome& b) {
  return a.ok && b.ok && a.digest == b.digest && a.attempted == b.attempted &&
         a.completed == b.completed && a.failed == b.failed && a.p50 == b.p50 && a.p99 == b.p99;
}

int Main(int argc, char** argv) {
  const std::string spec_path = argc > 1 ? argv[1] : E2E_DEFAULT_SPEC;
  std::ifstream file(spec_path);
  if (!file) {
    std::printf("cannot read spec '%s'\n", spec_path.c_str());
    return 2;
  }
  std::stringstream spec;
  spec << file.rdbuf();

  struct Case {
    const char* name;
    u64 ops;
  };
  // Sizes that span several Step() chunks, so chunk boundaries are covered.
  const Case cases[] = {{"switch_line_rate", 16'384}, {"memcached_cluster", 40'000},
                        {"chain_pipeline", 1'000}};
  int failures = 0;
  for (const Case& c : cases) {
    const Outcome serial = RunFixed(c.name, spec.str(), 7, 1, c.ops);
    const Outcome parallel = RunFixed(c.name, spec.str(), 7, 3, c.ops);
    const Outcome other = RunFixed(c.name, spec.str(), 8, 1, c.ops);
    const bool threads_agree = Same(serial, parallel);
    const bool clean = serial.failed == 0 && serial.completed == serial.attempted &&
                       serial.attempted == c.ops;
    const bool seed_matters = other.ok && other.digest != serial.digest;
    std::printf("%-18s digest %016" PRIx64 " ops %" PRIu64 "/%" PRIu64
                " p50 %.4f us p99 %.4f us | threads 1=3: %s | clean: %s | seed 8 differs: %s\n",
                c.name, serial.digest, serial.completed, serial.attempted, serial.p50,
                serial.p99, threads_agree ? "yes" : "NO", clean ? "yes" : "NO",
                seed_matters ? "yes" : "NO");
    failures += threads_agree && clean && seed_matters ? 0 : 1;
  }
  std::printf("%s\n", failures == 0 ? "determinism self-test passed" : "determinism self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace emu::e2e

int main(int argc, char** argv) { return emu::e2e::Main(argc, argv); }
