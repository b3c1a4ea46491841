// The benchmark's three workloads, driven only through the library's public
// entry points (FpgaTarget, ShardedTopology, ParseScenarioSpec +
// BuildScenario + ChainRuntime, MemaslapLoadgen), timed from outside and
// checked against a model the benchmark derives from the seed.
//
// Traffic is open-loop in simulated time: operation k is due at a fixed
// simulated instant whether or not earlier replies have arrived, and its
// simulated RTT counts from that instant. A Workload is driven as
//
//   Build();  Warm();          // set-up: what a user pays on every run
//   while (...) Step();        // the timed phase, one bounded chunk per call
//   Finish();                  // stop issuing, drain, run the final oracle
//
// and reports counts, an exact simulated-RTT distribution, a digest of
// everything observed, and (when built with `profile`) the per-layer values
// of the library's own observers.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace emu::e2e {

struct WorkloadConfig {
  u64 seed = 1;
  // ParallelRunner worker threads for the sharded workloads.
  usize threads = 1;
  // Attach the observers the per-layer metrics come from: SimProfile in
  // kFull mode on every reachable Simulator and a RunnerPulse on the runner.
  // Timed end-to-end runs leave this off.
  bool profile = false;
  // chain_pipeline: the ScenarioSpec text to build.
  std::string spec_text;
  // 0: keep issuing until Finish() (timed runs). Otherwise issue exactly this
  // many operations, then stop (the determinism self-test).
  u64 op_limit = 0;
};

// Exact distribution of simulated RTTs. Simulated values repeat heavily, so
// a value -> count map stays small over millions of samples.
class RttHistogram {
 public:
  void Add(Picoseconds rtt) {
    ++counts_[rtt];
    ++total_;
  }
  void Merge(const RttHistogram& other) {
    for (const auto& [value, count] : other.counts_) {
      counts_[value] += count;
    }
    total_ += other.total_;
  }
  u64 count() const { return total_; }
  // Nearest-rank quantile in simulated microseconds (0 when empty).
  double QuantileUs(double q) const;

 private:
  std::map<Picoseconds, u64> counts_;
  u64 total_ = 0;
};

// Per-layer values by metric name, and why a workload cannot report the
// metrics whose names start with a given prefix (one entry per observer the
// workload lacks, such as "sim." without a ParallelRunner).
struct LayerReport {
  std::map<std::string, double> values;
  std::map<std::string, std::string> unavailable;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Configuration or spec text to a wired world (setup.build_s). Returns
  // false and sets error() when the world cannot be built.
  virtual bool Build() = 0;
  // The warm-up users pay on every run: MAC learning, memcached prewarm
  // (setup.warm_s). Returns false and sets error() when it goes wrong.
  virtual bool Warm() = 0;
  // Advances the open-loop load by one bounded chunk of simulation.
  virtual void Step() = 0;
  // Stops issuing (unless op_limit is still to be reached), drains
  // everything in flight and counts whatever never completed as failed.
  virtual void Finish() = 0;

  // Operations issued, completed correctly, and failed.
  u64 attempted() const { return attempted_; }
  u64 completed() const { return completed_; }
  u64 failed() const { return failed_; }
  // Fold of every observed output (egress port/time/sequence, reply arrival
  // time and bytes, chain counters).
  virtual u64 Digest() const = 0;
  // Simulated RTTs of a fixed number of first operations by issue order, so
  // the quantiles do not depend on how far a host got in its time budget.
  const RttHistogram& rtt() const { return rtt_; }
  // Operations whose actual send lagged their due instant (generator late).
  u64 late() const { return late_; }
  // First few failure descriptions, for stderr.
  const std::vector<std::string>& failure_log() const { return failure_log_; }
  const std::string& error() const { return error_; }

  // Per-layer values over the Step() phase, normalized by `ops`. Only
  // meaningful with profile=true; call after Finish().
  virtual void CollectLayers(double ops, LayerReport& report) const = 0;

 protected:
  void Fail(const std::string& what, u64 count = 1) {
    failed_ += count;
    if (failure_log_.size() < 8) {
      failure_log_.push_back(what);
    }
  }

  u64 attempted_ = 0;
  u64 completed_ = 0;
  u64 failed_ = 0;
  u64 late_ = 0;
  RttHistogram rtt_;
  std::vector<std::string> failure_log_;
  std::string error_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadConfig& config);

}  // namespace emu::e2e

#endif  // E2EBENCH_WORKLOADS_H_
