// The serial-twin runner sweep shared by microbench_chain, microbench_gossip
// and microbench_parallel.
//
// A sweep row is one workload shape (a pipeline, a cluster size) run at
// several thread counts. Every round of a row runs threads=1 first: it is the
// bit-exactness reference and the speedup denominator. Every other cell must
// reproduce the twin's events, epochs and digest, or the sweep fails
// regardless of speed. A cell reports the median wall time and the median,
// min and max speedup over its rounds; --check judges the median against
// kSpeedupFloor.
#ifndef BENCH_RUNNER_SWEEP_H_
#define BENCH_RUNNER_SWEEP_H_

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/types.h"

namespace emu::bench {

// One serial/parallel pair reads anywhere from 0.6x to 2.6x on a shared
// 4-vCPU host, so --check judges the median of this many rounds against a
// floor below that whole range: it catches a runner that loses half its
// speed to synchronisation, not host noise.
inline constexpr int kCheckRounds = 5;
inline constexpr double kSpeedupFloor = 0.5;

// One measured run. `ok` is false when the workload broke its own
// invariants (it says why on stderr).
struct SweepRun {
  bool ok = true;
  double wall_seconds = 0;
  u64 events = 0;
  u64 epochs = 0;
  u64 digest = 0;
};

struct SweepCell {
  usize threads = 0;
  u64 events = 0;
  u64 epochs = 0;
  double wall_seconds = 0;  // median over the rounds
  double speedup = 0;       // median, min and max over the rounds
  double speedup_min = 0;
  double speedup_max = 0;
};

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs rows, prints one table line per cell, and collects the cells JSON.
class RunnerSweep {
 public:
  // Prints the table header: `key` heads the first column, which is `width`
  // characters wide. A `check`ed sweep fails when a parallel cell's median
  // is below the floor.
  RunnerSweep(const char* key, int width, int rounds, bool check)
      : key_(key), width_(width), rounds_(rounds), check_(check) {
    std::printf("%-*s %-8s %12s %10s %12s %10s %10s\n", width_, key_, "threads", "events",
                "epochs", "wall_s", "Mev/s", "speedup");
  }

  // Sweeps one row: `run(threads)` performs one measured run. `name` is the
  // row's first column; `name_json` is its JSON value.
  std::vector<SweepCell> Row(const std::string& name, const std::string& name_json,
                             const std::vector<usize>& thread_counts,
                             const std::function<SweepRun(usize threads)>& run) {
    std::vector<SweepCell> cells(thread_counts.size());
    std::vector<std::vector<double>> walls(thread_counts.size());
    std::vector<std::vector<double>> speedups(thread_counts.size());
    for (int round = 0; round < rounds_; ++round) {
      const SweepRun serial = run(1);
      ok_ = ok_ && serial.ok;
      for (usize j = 0; j < thread_counts.size(); ++j) {
        const SweepRun cell = thread_counts[j] == 1 ? serial : run(thread_counts[j]);
        ok_ = ok_ && cell.ok;
        if (cell.digest != serial.digest || cell.events != serial.events ||
            cell.epochs != serial.epochs) {
          std::fprintf(stderr,
                       "DIVERGENCE %s=%s threads=%zu: digest %016llx events %llu epochs %llu"
                       " != serial %016llx events %llu epochs %llu\n",
                       key_, name.c_str(), thread_counts[j],
                       static_cast<unsigned long long>(cell.digest),
                       static_cast<unsigned long long>(cell.events),
                       static_cast<unsigned long long>(cell.epochs),
                       static_cast<unsigned long long>(serial.digest),
                       static_cast<unsigned long long>(serial.events),
                       static_cast<unsigned long long>(serial.epochs));
          ok_ = false;
        }
        cells[j].threads = thread_counts[j];
        cells[j].events = cell.events;
        cells[j].epochs = cell.epochs;
        walls[j].push_back(cell.wall_seconds);
        speedups[j].push_back(cell.wall_seconds > 0 ? serial.wall_seconds / cell.wall_seconds
                                                    : 0.0);
      }
    }
    for (usize j = 0; j < cells.size(); ++j) {
      SweepCell& cell = cells[j];
      cell.wall_seconds = Median(walls[j]);
      cell.speedup = Median(speedups[j]);
      cell.speedup_min = *std::min_element(speedups[j].begin(), speedups[j].end());
      cell.speedup_max = *std::max_element(speedups[j].begin(), speedups[j].end());
      Report(name, name_json, cell);
    }
    return cells;
  }

  // Writes `{"benchmark", "workload", "rounds", "speedup_floor", "cells"}`
  // to `path` (skipped when empty), then turns the sweep's verdict into an
  // exit code: 1 on a divergence, a broken invariant or a slow cell.
  int Finish(const std::string& path, const std::string& benchmark,
             const std::string& workload_json) const {
    if (!path.empty()) {
      std::ofstream file(path);
      file << "{\n  \"benchmark\": \"" << benchmark << "\",\n  \"workload\": " << workload_json
           << ",\n  \"rounds\": " << rounds_ << ",\n  \"speedup_floor\": "
           << (check_ ? FormatJsonNumber(kSpeedupFloor) : std::string("null"))
           << ",\n  \"cells\": [\n" << cells_json_ << "\n  ]\n}\n";
      if (!file) {
        std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    if (!ok_) {
      std::fprintf(stderr, "FAIL: a run diverged from its serial twin or broke its invariants\n");
      return 1;
    }
    if (!fast_enough_) {
      std::fprintf(stderr, "FAIL: a parallel cell's median speedup is below %.2fx\n",
                   kSpeedupFloor);
      return 1;
    }
    return 0;
  }

  bool ok() const { return ok_; }

 private:
  void Report(const std::string& name, const std::string& name_json, const SweepCell& cell) {
    const double events_per_sec =
        cell.wall_seconds > 0 ? static_cast<double>(cell.events) / cell.wall_seconds : 0.0;
    std::printf("%-*s %-8zu %12llu %10llu %12.4f %10.2f %10.2f\n", width_, name.c_str(),
                cell.threads, static_cast<unsigned long long>(cell.events),
                static_cast<unsigned long long>(cell.epochs), cell.wall_seconds,
                events_per_sec / 1e6, cell.speedup);
    if (check_ && cell.threads > 1 && cell.speedup < kSpeedupFloor) {
      std::fprintf(stderr, "SLOW %s=%s threads=%zu: median speedup %.2fx < %.2fx\n", key_,
                   name.c_str(), cell.threads, cell.speedup, kSpeedupFloor);
      fast_enough_ = false;
    }
    if (!cells_json_.empty()) {
      cells_json_ += ",\n";
    }
    cells_json_ += "    {\"" + std::string(key_) + "\": " + name_json +
                   ", \"threads\": " + std::to_string(cell.threads) +
                   ", \"events\": " + std::to_string(cell.events) +
                   ", \"epochs\": " + std::to_string(cell.epochs) +
                   ", \"wall_seconds\": " + FormatJsonNumber(cell.wall_seconds) +
                   ", \"events_per_sec\": " + FormatJsonNumber(events_per_sec) +
                   ", \"speedup\": " + FormatJsonNumber(cell.speedup) +
                   ", \"speedup_min\": " + FormatJsonNumber(cell.speedup_min) +
                   ", \"speedup_max\": " + FormatJsonNumber(cell.speedup_max) + "}";
  }

  const char* key_;
  int width_;
  int rounds_;
  bool check_;
  bool ok_ = true;
  bool fast_enough_ = true;
  std::string cells_json_;
};

}  // namespace emu::bench

#endif  // BENCH_RUNNER_SWEEP_H_
