#include "src/obs/pulse.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/common/json.h"

namespace emu::obs {
namespace {

void AppendU64(std::string& out, u64 value) { out += std::to_string(value); }

void AppendI64(std::string& out, Picoseconds value) { out += std::to_string(value); }

void AppendPhase(std::string& out, const char* name, const PhaseProfile& phase) {
  out += '"';
  out += name;
  out += "\":{\"calls\":";
  AppendU64(out, phase.calls);
  out += ",\"timed_calls\":";
  AppendU64(out, phase.timed_calls);
  out += ",\"wall_ns\":";
  AppendU64(out, phase.wall_ns);
  out += ",\"estimated_total_ns\":";
  json::AppendNumber(out, phase.EstimatedTotalNs());
  out += '}';
}

const char* ModeName(ProfilingMode mode) {
  switch (mode) {
    case ProfilingMode::kOff:
      return "off";
    case ProfilingMode::kSampled:
      return "sampled";
    case ProfilingMode::kFull:
      return "full";
  }
  return "off";
}

// Wall-clock Chrome trace timestamps are in microseconds; keep three
// fractional digits so sub-microsecond spans stay visible.
void AppendNsAsMicros(std::string& out, u64 ns) {
  AppendU64(out, ns / 1000);
  out += '.';
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%03u", static_cast<unsigned>(ns % 1000));
  out += buf;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(file);
}

}  // namespace

std::string SimProfileJson(const SimProfile& profile) {
  std::string out;
  out += "{\"profiling_enabled\":";
  out += profile.profiling_enabled ? "true" : "false";
  out += ",\"mode\":\"";
  out += ModeName(profile.mode);
  out += "\",\"sample_stride\":";
  AppendU64(out, profile.sample_stride);
  out += ",\"edges_run\":";
  AppendU64(out, profile.edges_run);
  out += ",\"cycles_fast_forwarded\":";
  AppendU64(out, profile.cycles_fast_forwarded);
  out += ",\"jumps\":";
  AppendU64(out, profile.jumps);
  out += ",\"edges_timed\":";
  AppendU64(out, profile.edges_timed);
  out += ",\"phases\":{";
  AppendPhase(out, "resume_dispatch", profile.resume_dispatch);
  out += ',';
  AppendPhase(out, "commit_sweep", profile.commit_sweep);
  out += ',';
  AppendPhase(out, "quiescence_scan", profile.quiescence_scan);
  out += ',';
  AppendPhase(out, "fast_forward", profile.fast_forward);
  out += "},\"processes\":[";
  u64 total_resumes = 0;
  u64 total_polls = 0;
  u64 total_wall_ns = 0;
  bool first = true;
  for (const ProcessProfile& process : profile.processes) {
    total_resumes += process.resumes;
    total_polls += process.polls;
    total_wall_ns += process.wall_ns;
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":";
    json::AppendString(out, process.name);
    out += ",\"resumes\":";
    AppendU64(out, process.resumes);
    out += ",\"cycles_awake\":";
    AppendU64(out, process.cycles_awake);
    out += ",\"polls\":";
    AppendU64(out, process.polls);
    out += ",\"wall_ns\":";
    AppendU64(out, process.wall_ns);
    out += '}';
  }
  out += "],\"totals\":{\"resumes\":";
  AppendU64(out, total_resumes);
  out += ",\"polls\":";
  AppendU64(out, total_polls);
  out += ",\"resume_wall_ns\":";
  AppendU64(out, total_wall_ns);
  out += "}}";
  return out;
}

std::string FormatSimProfileTable(const SimProfile& profile) {
  if (!profile.populated()) {
    return {};
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "kernel phases (mode=%s stride=%llu, %llu/%llu edges timed)\n",
                ModeName(profile.mode), static_cast<unsigned long long>(profile.sample_stride),
                static_cast<unsigned long long>(profile.edges_timed),
                static_cast<unsigned long long>(profile.edges_run));
  out += line;
  std::snprintf(line, sizeof(line), "  %-18s %12s %12s %14s %16s\n", "phase", "calls", "timed",
                "wall_us", "est_total_us");
  out += line;
  const auto row = [&](const char* name, const PhaseProfile& phase) {
    std::snprintf(line, sizeof(line), "  %-18s %12llu %12llu %14.1f %16.1f\n", name,
                  static_cast<unsigned long long>(phase.calls),
                  static_cast<unsigned long long>(phase.timed_calls),
                  static_cast<double>(phase.wall_ns) / 1e3, phase.EstimatedTotalNs() / 1e3);
    out += line;
  };
  row("resume_dispatch", profile.resume_dispatch);
  row("commit_sweep", profile.commit_sweep);
  row("quiescence_scan", profile.quiescence_scan);
  row("fast_forward", profile.fast_forward);
  // Per-process rows, hottest first; skip processes that never resumed.
  std::vector<const ProcessProfile*> hot;
  hot.reserve(profile.processes.size());
  for (const ProcessProfile& process : profile.processes) {
    if (process.resumes > 0 || process.polls > 0) {
      hot.push_back(&process);
    }
  }
  std::sort(hot.begin(), hot.end(), [](const ProcessProfile* a, const ProcessProfile* b) {
    return a->wall_ns != b->wall_ns ? a->wall_ns > b->wall_ns : a->resumes > b->resumes;
  });
  std::snprintf(line, sizeof(line), "  %-28s %12s %12s %14s\n", "process", "resumes", "polls",
                "wall_us");
  out += line;
  for (const ProcessProfile* process : hot) {
    std::snprintf(line, sizeof(line), "  %-28s %12llu %12llu %14.1f\n", process->name.c_str(),
                  static_cast<unsigned long long>(process->resumes),
                  static_cast<unsigned long long>(process->polls),
                  static_cast<double>(process->wall_ns) / 1e3);
    out += line;
  }
  return out;
}

void RunnerPulse::BeginRun(usize shard_count, usize threads) {
  shard_count_ = shard_count;
  threads_ = threads;
  epochs_ = 0;
  inline_epochs_ = 0;
  parallel_epochs_ = 0;
  total_events_ = 0;
  run_wall_ns_ = 0;
  dropped_records_ = 0;
  plan_aggregate_ = PlanAggregate{};
  plans_.clear();
  shard_epochs_.clear();
  aggregates_.assign(shard_count, ShardAggregate{});
  base_ = std::chrono::steady_clock::now();
}

void RunnerPulse::EndRun(u64 total_events) {
  total_events_ = total_events;
  run_wall_ns_ = NowNs();
}

void RunnerPulse::RecordPlan(const PlanRecord& record) {
  ++epochs_;
  plan_aggregate_.wall_ns += record.wall_ns;
  plan_aggregate_.relax_sweeps += record.relax_sweeps;
  plan_aggregate_.relaxations += record.relaxations;
  plan_aggregate_.frames_drained += record.frames_drained;
  if (plans_.size() >= max_records_) {
    ++dropped_records_;
    return;
  }
  plans_.push_back(record);
}

void RunnerPulse::RecordEpochMode(bool parallel) {
  ++(parallel ? parallel_epochs_ : inline_epochs_);
}

void RunnerPulse::RecordShardEpoch(const ShardEpochRecord& record) {
  if (record.shard < aggregates_.size()) {
    ShardAggregate& agg = aggregates_[record.shard];
    ++agg.epochs;
    agg.executed += record.executed;
    agg.work_ns += record.work_end_ns - record.work_begin_ns;
    agg.barrier_wait_ns += record.barrier_wait_ns;
    agg.max_barrier_wait_ns = std::max(agg.max_barrier_wait_ns, record.barrier_wait_ns);
  }
  if (shard_epochs_.size() >= max_records_) {
    ++dropped_records_;
    return;
  }
  shard_epochs_.push_back(record);
}

std::string RunnerPulse::SummaryJson() const {
  std::string out;
  out += "{\"shards\":";
  AppendU64(out, shard_count_);
  out += ",\"threads\":";
  AppendU64(out, threads_);
  out += ",\"epochs\":";
  AppendU64(out, epochs_);
  out += ",\"inline_epochs\":";
  AppendU64(out, inline_epochs_);
  out += ",\"parallel_epochs\":";
  AppendU64(out, parallel_epochs_);
  out += ",\"total_events\":";
  AppendU64(out, total_events_);
  out += ",\"run_wall_ns\":";
  AppendU64(out, run_wall_ns_);
  out += ",\"dropped_records\":";
  AppendU64(out, dropped_records_);
  // Exact whole-run totals, accumulated in RecordPlan — NOT re-summed from
  // the bounded plans_ ring, which loses epochs past the cap.
  out += ",\"plan\":{\"wall_ns\":";
  AppendU64(out, plan_aggregate_.wall_ns);
  out += ",\"relax_sweeps\":";
  AppendU64(out, plan_aggregate_.relax_sweeps);
  out += ",\"null_message_relaxations\":";
  AppendU64(out, plan_aggregate_.relaxations);
  out += ",\"frames_drained\":";
  AppendU64(out, plan_aggregate_.frames_drained);
  out += "},\"shard_summary\":[";
  for (usize i = 0; i < aggregates_.size(); ++i) {
    const ShardAggregate& agg = aggregates_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"shard\":";
    AppendU64(out, i);
    out += ",\"epochs\":";
    AppendU64(out, agg.epochs);
    out += ",\"executed\":";
    AppendU64(out, agg.executed);
    out += ",\"work_ns\":";
    AppendU64(out, agg.work_ns);
    out += ",\"barrier_wait_ns\":";
    AppendU64(out, agg.barrier_wait_ns);
    out += ",\"max_barrier_wait_ns\":";
    AppendU64(out, agg.max_barrier_wait_ns);
    out += '}';
  }
  out += "],\"plan_epochs\":[";
  for (usize i = 0; i < plans_.size(); ++i) {
    const PlanRecord& plan = plans_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"epoch\":";
    AppendU64(out, plan.epoch);
    out += ",\"begin_ns\":";
    AppendU64(out, plan.begin_ns);
    out += ",\"wall_ns\":";
    AppendU64(out, plan.wall_ns);
    out += ",\"relax_sweeps\":";
    AppendU64(out, plan.relax_sweeps);
    out += ",\"null_message_relaxations\":";
    AppendU64(out, plan.relaxations);
    out += ",\"frames_drained\":";
    AppendU64(out, plan.frames_drained);
    out += '}';
  }
  out += "],\"shard_epochs\":[";
  for (usize i = 0; i < shard_epochs_.size(); ++i) {
    const ShardEpochRecord& rec = shard_epochs_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"epoch\":";
    AppendU64(out, rec.epoch);
    out += ",\"shard\":";
    AppendU64(out, rec.shard);
    out += ",\"horizon_ps\":";
    AppendI64(out, rec.horizon_ps);
    out += ",\"executed\":";
    AppendU64(out, rec.executed);
    out += ",\"work_ns\":";
    AppendU64(out, rec.work_end_ns - rec.work_begin_ns);
    out += ",\"barrier_wait_ns\":";
    AppendU64(out, rec.barrier_wait_ns);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string RunnerPulse::WallClockTraceJson() const {
  std::string out;
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };
  // Row names. pid 1 distinguishes the wall-clock process from the
  // deterministic trace's pid 0, should anyone load both side by side.
  comma();
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"emu-pulse wallclock (excluded from byte-compare)\"}}";
  for (usize i = 0; i < shard_count_; ++i) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(out, i);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"shard";
    AppendU64(out, i);
    out += " (wall)\"}}";
  }
  comma();
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
  AppendU64(out, shard_count_);
  out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"coordinator (wall)\"}}";
  for (const PlanRecord& plan : plans_) {
    comma();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendU64(out, shard_count_);
    out += ",\"ts\":";
    AppendNsAsMicros(out, plan.begin_ns);
    out += ",\"dur\":";
    AppendNsAsMicros(out, plan.wall_ns);
    out += ",\"name\":\"epoch.plan\",\"args\":{\"epoch\":";
    AppendU64(out, plan.epoch);
    out += ",\"relaxations\":";
    AppendU64(out, plan.relaxations);
    out += "}}";
  }
  for (const ShardEpochRecord& rec : shard_epochs_) {
    comma();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendU64(out, rec.shard);
    out += ",\"ts\":";
    AppendNsAsMicros(out, rec.work_begin_ns);
    out += ",\"dur\":";
    AppendNsAsMicros(out, rec.work_end_ns - rec.work_begin_ns);
    out += ",\"name\":\"shard.work\",\"args\":{\"epoch\":";
    AppendU64(out, rec.epoch);
    out += ",\"executed\":";
    AppendU64(out, rec.executed);
    out += "}}";
    if (rec.barrier_wait_ns > 0) {
      comma();
      out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
      AppendU64(out, rec.shard);
      out += ",\"ts\":";
      AppendNsAsMicros(out, rec.work_end_ns);
      out += ",\"dur\":";
      AppendNsAsMicros(out, rec.barrier_wait_ns);
      out += ",\"name\":\"barrier.wait\",\"args\":{\"epoch\":";
      AppendU64(out, rec.epoch);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

bool RunnerPulse::WriteSummaryJson(const std::string& path) const {
  return WriteFile(path, SummaryJson());
}

bool RunnerPulse::WriteWallClockTraceJson(const std::string& path) const {
  return WriteFile(path, WallClockTraceJson());
}

}  // namespace emu::obs
