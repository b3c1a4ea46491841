#include "e2ebench/workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "src/chain/scenario_build.h"
#include "src/chain/scenario_spec.h"
#include "src/chain/stage_factory.h"
#include "src/common/rng.h"
#include "src/core/targets.h"
#include "src/net/ipv4.h"
#include "src/net/memcached.h"
#include "src/net/udp.h"
#include "src/netfpga/port.h"
#include "src/obs/pulse.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu::e2e {
namespace {

using i64 = std::int64_t;

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;
constexpr u64 kNoLimit = std::numeric_limits<u64>::max();
// Run() budget that only quiescence ends.
constexpr usize kDrainEvents = std::numeric_limits<usize>::max() / 2;

void Fold(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
}

u64 HashBytes(std::span<const u8> bytes) {
  u64 h = kFnvOffset;
  for (u8 b : bytes) {
    h = (h ^ b) * kFnvPrime;
  }
  return h;
}

u64 HashString(const std::string& s) {
  return HashBytes({reinterpret_cast<const u8*>(s.data()), s.size()});
}

u64 SplitMix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double PerOp(double value, double ops) { return ops > 0 ? value / ops : 0.0; }

constexpr const char* kSwitchResume = "services.learning_switch.resume_ns";
constexpr const char* kMemcachedResume = "services.memcached.resume_ns";

// --- Runner ledger: RunnerPulse totals accumulated over many Run() calls ---

// A RunnerPulse resets at every Run(), so the ledger sums each run's totals.
// `worker_accounted_ns` credits each worker thread with the work of its
// contiguous shard block plus the barrier wait of the block's last shard —
// the runner's own partition — so (plan + mean worker accounting) / wall is
// the share of runner wall time the pulse explains.
struct RunnerLedger {
  u64 wall_ns = 0;
  u64 plan_ns = 0;
  u64 events = 0;
  u64 threads = 1;
  u64 max_barrier_ns = 0;
  u64 worker_accounted_ns = 0;
  std::vector<u64> work_ns;
  std::vector<u64> barrier_ns;

  void Add(const obs::RunnerPulse& pulse) {
    wall_ns += pulse.run_wall_ns();
    plan_ns += pulse.plan_aggregate().wall_ns;
    events += pulse.total_events();
    threads = std::max<u64>(1, pulse.threads());
    const auto& shards = pulse.shard_aggregates();
    work_ns.resize(shards.size(), 0);
    barrier_ns.resize(shards.size(), 0);
    for (usize i = 0; i < shards.size(); ++i) {
      work_ns[i] += shards[i].work_ns;
      barrier_ns[i] += shards[i].barrier_wait_ns;
      max_barrier_ns = std::max(max_barrier_ns, shards[i].max_barrier_wait_ns);
    }
    const usize n = shards.size();
    for (usize w = 0; w < threads; ++w) {
      const usize begin = w * n / threads;
      const usize end = (w + 1) * n / threads;
      for (usize i = begin; i < end; ++i) {
        worker_accounted_ns += shards[i].work_ns;
      }
      if (end > begin) {
        worker_accounted_ns += shards[end - 1].barrier_wait_ns;
      }
    }
  }
};

// Cumulative runner plan counters, snapshotted at both ends of the timed phase.
struct RunnerCounters {
  u64 epochs = 0;
  u64 relax_sweeps = 0;
  u64 relaxations = 0;
  u64 frames_drained = 0;

  static RunnerCounters Of(ParallelRunner& runner) {
    return {runner.epochs(), runner.relax_sweeps(), runner.null_message_relaxations(),
            runner.frames_drained()};
  }
};

void ReportRunner(const RunnerLedger& ledger, const RunnerCounters& begin,
                  const RunnerCounters& end, double ops, LayerReport& report) {
  auto& v = report.values;
  u64 work = 0;
  u64 barrier = 0;
  u64 max_work = 0;
  for (usize i = 0; i < ledger.work_ns.size(); ++i) {
    work += ledger.work_ns[i];
    barrier += ledger.barrier_ns[i];
    max_work = std::max(max_work, ledger.work_ns[i]);
  }
  const double shards = static_cast<double>(std::max<usize>(1, ledger.work_ns.size()));
  const double epochs = static_cast<double>(end.epochs - begin.epochs);
  const double wall = static_cast<double>(ledger.wall_ns);
  v["sim.runner.barrier_wait_ns"] = PerOp(static_cast<double>(barrier), ops);
  v["sim.runner.max_barrier_wait_ns"] = static_cast<double>(ledger.max_barrier_ns);
  v["sim.runner.plan_ns"] = PerOp(static_cast<double>(ledger.plan_ns), ops);
  v["sim.runner.shard_work_ns"] = PerOp(static_cast<double>(work), ops);
  v["sim.runner.events_per_epoch"] = epochs > 0 ? static_cast<double>(ledger.events) / epochs : 0;
  v["sim.runner.work_imbalance"] =
      work > 0 ? static_cast<double>(max_work) / (static_cast<double>(work) / shards) : 0;
  v["sim.runner.accounted_share"] =
      wall > 0 ? (static_cast<double>(ledger.plan_ns) +
                  static_cast<double>(ledger.worker_accounted_ns) /
                      static_cast<double>(ledger.threads)) /
                     wall
               : 0;
  v["sim.runner.frames_drained"] =
      PerOp(static_cast<double>(end.frames_drained - begin.frames_drained), ops);
  v["sim.runner.relax_sweeps"] =
      PerOp(static_cast<double>(end.relax_sweeps - begin.relax_sweeps), ops);
  v["sim.runner.null_relaxations"] =
      PerOp(static_cast<double>(end.relaxations - begin.relaxations), ops);
  v["sim.events"] = PerOp(static_cast<double>(ledger.events), ops);
  v["sim.ns_per_event"] = ledger.events > 0 ? wall / static_cast<double>(ledger.events) : 0;
}

// --- Kernel profile: SimProfile deltas summed over every reachable Simulator ---

struct KernelTotals {
  i64 edges_run = 0;
  i64 cycles_fast_forwarded = 0;
  i64 resume_ns = 0;
  i64 commit_ns = 0;
  i64 scan_ns = 0;
  i64 ff_ns = 0;
  i64 flat_ns = 0;
  i64 resumes = 0;
  i64 polls = 0;
  i64 service_ns = 0;  // resumes of the service's own processes (name prefix)

  // Adds (sign +1) or subtracts (sign -1) one report: a begin snapshot
  // subtracted and an end snapshot added leave the timed-phase delta.
  void Add(const SimProfile& p, const std::string& service_prefix, i64 sign) {
    edges_run += sign * static_cast<i64>(p.edges_run);
    cycles_fast_forwarded += sign * static_cast<i64>(p.cycles_fast_forwarded);
    resume_ns += sign * static_cast<i64>(p.resume_dispatch.wall_ns);
    commit_ns += sign * static_cast<i64>(p.commit_sweep.wall_ns);
    scan_ns += sign * static_cast<i64>(p.quiescence_scan.wall_ns);
    ff_ns += sign * static_cast<i64>(p.fast_forward.wall_ns);
    flat_ns += sign * static_cast<i64>(p.flat_span.wall_ns);
    for (const ProcessProfile& proc : p.processes) {
      resumes += sign * static_cast<i64>(proc.resumes);
      polls += sign * static_cast<i64>(proc.polls);
      if (proc.name.rfind(service_prefix, 0) == 0) {
        service_ns += sign * static_cast<i64>(proc.wall_ns);
      }
    }
  }
};

void ReportKernel(const KernelTotals& k, const std::string& service_metric, double ops,
                  LayerReport& report) {
  auto& v = report.values;
  const auto d = [](i64 x) { return static_cast<double>(x); };
  v["hdl.ns_per_edge"] = k.edges_run > 0 ? d(k.resume_ns + k.commit_ns) / d(k.edges_run) : 0;
  v["hdl.resume_dispatch_ns"] = PerOp(d(k.resume_ns), ops);
  v["hdl.commit_sweep_ns"] = PerOp(d(k.commit_ns), ops);
  v["hdl.quiescence_scan_ns"] = PerOp(d(k.scan_ns), ops);
  v["hdl.fast_forward_ns"] = PerOp(d(k.ff_ns), ops);
  v["hdl.flat_span_ns"] = PerOp(d(k.flat_ns), ops);
  const double cycles = d(k.edges_run + k.cycles_fast_forwarded);
  v["hdl.ff_share"] = cycles > 0 ? d(k.cycles_fast_forwarded) / cycles : 0;
  v["hdl.edges_run"] = PerOp(d(k.edges_run), ops);
  v["hdl.cycles_fast_forwarded"] = PerOp(d(k.cycles_fast_forwarded), ops);
  v["hdl.resumes"] = PerOp(d(k.resumes), ops);
  v["hdl.polls"] = PerOp(d(k.polls), ops);
  v[service_metric] = PerOp(d(k.service_ns), ops);
}

// --- Memaslap clients shared by the two memcached workloads ---

// One outstanding request, found again by the IPv4 identification the
// benchmark stamps on it (every service on the path builds its reply in the
// request's frame, so the identification comes back unchanged).
struct Pending {
  bool live = false;
  bool timed = false;   // a workload request, not prewarm
  McOpcode op = McOpcode::kGet;
  u64 index = 0;        // issue order among workload requests
  Picoseconds due = 0;  // the open-loop instant it was sent at
  u64 key_hash = 0;
  u64 value_hash = 0;   // GET: hash of the value the shadow store predicts
};

// Issue and reply state of one memaslap client. Touched only on the client
// host's shard, and from the main thread between runs.
struct McClient {
  SimHost* host = nullptr;
  std::unique_ptr<MemaslapLoadgen> gen;
  std::unordered_map<std::string, u64> shadow;  // key -> hash of the last SET value
  std::vector<Pending> pending = std::vector<Pending>(1u << 16);
  u64 next_id = 0;
  Picoseconds t0 = 0;
  Picoseconds gap = 0;
  u64 issued = 0;  // workload requests issued
  u64 limit = kNoLimit;
  u64 fidelity_ops = 0;
  bool miss_ok = false;
  u64 prewarm_ok = 0;
  u64 ok = 0;
  u64 failed = 0;
  u64 gets = 0;
  u64 get_hits = 0;
  u64 digest = kFnvOffset;
  RttHistogram rtt;
  std::vector<std::string> failure_log;

  void Fail(const std::string& what, u64 count = 1) {
    failed += count;
    if (failure_log.size() < 8) {
      failure_log.push_back(what);
    }
  }

  // Stamps the request's identification and records what the oracle expects.
  Packet Stamp(Packet frame, bool timed) {
    Ipv4View ip(frame);
    const u16 id = static_cast<u16>(next_id++ & 0xffff);
    ip.set_identification(id);
    ip.UpdateChecksum();
    Pending& p = pending[id];
    if (p.live) {
      Fail("request id " + std::to_string(id) + " reused while still outstanding");
    }
    p = Pending{};
    p.live = true;
    p.timed = timed;
    p.index = issued;
    p.due = host->scheduler().now();
    UdpView udp(frame, ip.payload_offset());
    Expected<McRequest> request = ParseMcRequest(udp.Payload(), McProtocol::kAscii);
    if (!request.ok()) {
      Fail("generator produced an unparsable request");
      return frame;
    }
    p.op = request->op;
    p.key_hash = HashString(request->key);
    if (request->op == McOpcode::kSet) {
      shadow[request->key] = HashString(request->value);
    } else {
      const auto it = shadow.find(request->key);
      p.value_hash = it == shadow.end() ? 0 : it->second;
    }
    return frame;
  }

  // The next open-loop workload request, due now.
  Packet NextRequest() {
    Packet frame = Stamp(gen->WorkloadFrame(issued), /*timed=*/true);
    ++issued;
    return frame;
  }

  // Checks a reply against the oracle: exactly one reply per request, the
  // right operation, SETs stored, GETs answered with the shadow store's value
  // (a miss is legal only where a cache tier may have evicted the key).
  void OnReply(Packet& frame) {
    const Picoseconds now = host->scheduler().now();
    Fold(digest, static_cast<u64>(now));
    Fold(digest, HashBytes(frame.bytes()));
    Ipv4View ip(frame);
    if (!ip.Valid()) {
      Fail("reply is not IPv4");
      return;
    }
    const u16 id = ip.identification();
    Pending& p = pending[id];
    if (!p.live) {
      Fail("reply with id " + std::to_string(id) + " matches no outstanding request");
      return;
    }
    p.live = false;
    UdpView udp(frame, ip.payload_offset());
    Expected<McResponse> response = ParseMcResponse(udp.Payload(), McProtocol::kAscii);
    const std::string what = "request " + std::to_string(p.index) + (p.timed ? "" : " (prewarm)");
    if (!response.ok() || response->op != p.op) {
      Fail(what + ": reply does not parse or answers another operation");
      return;
    }
    bool good = false;
    bool hit = false;
    if (p.op == McOpcode::kSet) {
      good = response->status == McStatus::kNoError;
    } else if (response->status == McStatus::kNoError) {
      hit = true;
      good = p.value_hash != 0 && HashString(response->key) == p.key_hash &&
             HashString(response->value) == p.value_hash;
    } else {
      good = response->status == McStatus::kKeyNotFound && miss_ok;
    }
    if (!good) {
      Fail(what + ": wrong reply");
      return;
    }
    if (!p.timed) {
      ++prewarm_ok;
      return;
    }
    ++ok;
    if (p.op == McOpcode::kGet) {
      ++gets;
      get_hits += hit ? 1 : 0;
    }
    if (p.index < fidelity_ops) {
      rtt.Add(now - p.due);
    }
  }

  u64 outstanding() const {
    u64 n = 0;
    for (const Pending& p : pending) {
      n += p.live ? 1 : 0;
    }
    return n;
  }
};

// Common harness for the sharded memaslap workloads: prewarm, an open-loop
// generator per client, chunked runs with an optional pulse, and the merge of
// per-client counters into the Workload totals.
class MemaslapWorkload : public Workload {
 public:
  explicit MemaslapWorkload(const WorkloadConfig& config) : config_(config) {}

  void Step() override {
    if (!timed_) {
      StartObservers();
    }
    RunChunk();
    Sync();
  }

  void Finish() override {
    if (!timed_) {
      StartObservers();
    }
    SnapshotObservers();
    if (config_.op_limit == 0) {
      for (McClient& c : clients_) {
        c.limit = c.issued;
      }
    }
    runner().AttachPulse(nullptr);
    runner().Run({.threads = config_.threads, .max_events = kDrainEvents});
    for (McClient& c : clients_) {
      if (const u64 missing = c.outstanding(); missing > 0) {
        c.Fail(std::to_string(missing) + " request(s) never answered", missing);
      }
    }
    FinalChecks();
    Sync();
  }

  u64 Digest() const override {
    u64 h = kFnvOffset;
    for (const McClient& c : clients_) {
      Fold(h, c.digest);
      Fold(h, c.ok);
    }
    Fold(h, ExtraDigest());
    return h;
  }

 protected:
  virtual ParallelRunner& runner() = 0;
  virtual usize chunk_events() const = 0;
  // Per-workload observers (SimProfile) and counters at the timed-phase ends.
  virtual void StartExtraObservers() {}
  virtual void SnapshotExtraObservers() {}
  virtual void FinalChecks() {}
  virtual u64 ExtraDigest() const { return 0; }

  // Puts a stamped request on the wire from client `c`'s host.
  virtual void Send(McClient& c, Packet frame) = 0;

  // Sends every client's prewarm SETs, one per `gap` from `start`, and runs
  // the world to quiescence; every SET must be stored.
  bool Prewarm(Picoseconds start, Picoseconds gap) {
    for (McClient& c : clients_) {
      for (usize k = 0; k < c.gen->prewarm_count(); ++k) {
        McClient* client = &c;
        c.host->scheduler().At(start + static_cast<Picoseconds>(k) * gap, [this, client, k] {
          Send(*client, client->Stamp(client->gen->PrewarmFrame(k), /*timed=*/false));
        });
      }
    }
    runner().Run({.threads = config_.threads, .max_events = kDrainEvents});
    for (McClient& c : clients_) {
      if (c.prewarm_ok != c.gen->prewarm_count() || c.failed != 0) {
        error_ = "prewarm: " + std::to_string(c.prewarm_ok) + " of " +
                 std::to_string(c.gen->prewarm_count()) + " SETs stored" +
                 (c.failure_log.empty() ? "" : " (" + c.failure_log.front() + ")");
        return false;
      }
    }
    return true;
  }

  // Starts each client's open-loop generator at `t0`, one request per `gap`.
  bool StartGenerators(Picoseconds t0, Picoseconds gap) {
    for (McClient& c : clients_) {
      if (c.host->scheduler().now() >= t0) {
        error_ = "warm-up ran past the first due instant";
        return false;
      }
      c.t0 = t0;
      c.gap = gap;
      if (config_.op_limit != 0) {
        c.limit = config_.op_limit / clients_.size();
      }
      ScheduleTick(c);
    }
    return true;
  }

  void Sync() {
    completed_ = 0;
    attempted_ = 0;
    failed_ = own_failed_;
    failure_log_ = own_log_;
    rtt_ = RttHistogram{};
    for (const McClient& c : clients_) {
      completed_ += c.ok;
      attempted_ += c.issued;
      failed_ += c.failed;
      rtt_.Merge(c.rtt);
      for (const std::string& line : c.failure_log) {
        if (failure_log_.size() < 8) {
          failure_log_.push_back(line);
        }
      }
    }
  }

  void AddOwnFailure(const std::string& what) {
    ++own_failed_;
    if (own_log_.size() < 8) {
      own_log_.push_back(what);
    }
  }

  WorkloadConfig config_;
  std::vector<McClient> clients_;
  obs::RunnerPulse pulse_{1};
  RunnerLedger ledger_;
  RunnerCounters begin_;
  RunnerCounters end_;
  bool timed_ = false;

 private:
  void ScheduleTick(McClient& c) {
    McClient* client = &c;
    c.host->scheduler().At(c.t0 + static_cast<Picoseconds>(c.issued) * c.gap, [this, client] {
      if (client->issued >= client->limit) {
        return;
      }
      Send(*client, client->NextRequest());
      ScheduleTick(*client);
    });
  }

  void StartObservers() {
    timed_ = true;
    begin_ = RunnerCounters::Of(runner());
    if (config_.profile) {
      runner().AttachPulse(&pulse_);
    }
    StartExtraObservers();
  }

  void SnapshotObservers() {
    end_ = RunnerCounters::Of(runner());
    SnapshotExtraObservers();
  }

  void RunChunk() {
    runner().Run({.threads = config_.threads, .max_events = chunk_events()});
    if (config_.profile) {
      ledger_.Add(pulse_);
    }
  }

  u64 own_failed_ = 0;
  std::vector<std::string> own_log_;
};

// ============================================================================
// switch_line_rate: Table 3. One FpgaTarget learning switch with MACs
// learned; all four ports offered back-to-back 64 B frames at 10G line rate,
// port p to port (p+1)%4. No topology, no runner.
// ============================================================================

constexpr usize kPorts = 4;
constexpr usize kFrameBytes = 64;
constexpr u64 kSwitchChunkPerPort = 1024;
constexpr u64 kSwitchFidelityFrames = 1'000'000;
constexpr Cycle kSwitchRunLimit = 2'000'000;

MacAddress HostMac(usize port) { return MacAddress::FromU48(0x020000000001ull + port); }

class SwitchLineRate final : public Workload {
 public:
  explicit SwitchLineRate(const WorkloadConfig& config) : config_(config) {}

  bool Build() override {
    service_ = std::make_unique<LearningSwitch>();
    target_ = std::make_unique<FpgaTarget>(*service_);
    // Seeded per-port phase within one frame time, and seeded payload bytes.
    Rng rng(config_.seed);
    const Cycle frame_cycles = SerializationCycles(kFrameBytes, target_->sim());
    for (usize p = 0; p < kPorts; ++p) {
      phase_cycles_[p] = rng.NextBelow(frame_cycles);
    }
    salt_ = rng.NextU64();
    frame_ps_ = SerializationPs(kFrameBytes);
    return true;
  }

  bool Warm() override {
    std::array<u8, kFrameBytes> bytes;
    for (usize p = 0; p < kPorts; ++p) {
      FillFrame(MacAddress::Broadcast(), p, kNoLimit, bytes);
      target_->Inject(static_cast<u8>(p), Packet(std::vector<u8>(bytes.begin(), bytes.end())));
    }
    target_->Run(60'000);
    const usize flooded = target_->TakeEgress().size();
    if (flooded != kPorts * (kPorts - 1)) {
      error_ = "MAC learning flooded " + std::to_string(flooded) + " frames, expected " +
               std::to_string(kPorts * (kPorts - 1));
      return false;
    }
    base_cycle_ = target_->sim().now() + 100;
    return true;
  }

  void Step() override {
    if (!timed_) {
      StartObservers();
    }
    const u64 limit = PerPortLimit();
    // Keep two chunks on the wire ahead of the one being drained, so every
    // frame is injected before its due instant (the port paces at line rate).
    while (per_port_injected_ < limit &&
           per_port_injected_ < (chunks_done_ + 2) * kSwitchChunkPerPort) {
      InjectChunk(std::min(kSwitchChunkPerPort, limit - per_port_injected_));
    }
    RunUntilEgressed(std::min(per_port_injected_, (chunks_done_ + 1) * kSwitchChunkPerPort));
    ++chunks_done_;
  }

  void Finish() override {
    if (!timed_) {
      StartObservers();
    }
    kernel_.Add(target_->sim().ProfileReport(), "switch_", +1);
    target_->sim().SetProfilingMode(ProfilingMode::kOff);
    const u64 limit = config_.op_limit == 0 ? per_port_injected_ : PerPortLimit();
    while (per_port_injected_ < limit) {
      InjectChunk(std::min(kSwitchChunkPerPort, limit - per_port_injected_));
    }
    RunUntilEgressed(per_port_injected_);
    for (usize q = 0; q < kPorts; ++q) {
      if (next_seq_[q] < per_port_injected_) {
        Fail(std::to_string(per_port_injected_ - next_seq_[q]) +
                 " frame(s) never egressed on port " + std::to_string(q),
             per_port_injected_ - next_seq_[q]);
      }
    }
  }

  u64 Digest() const override { return digest_; }

  void CollectLayers(double ops, LayerReport& report) const override {
    ReportKernel(kernel_, kSwitchResume, ops, report);
    report.unavailable["sim."] = "a lone FpgaTarget has no ParallelRunner or EventScheduler";
    report.unavailable["chain."] = "no chain in this workload";
    report.unavailable["services.l1_"] = "no chain L1 tier in this workload";
    report.unavailable[kMemcachedResume] = "no memcached service in this workload";
  }

 private:
  u64 PerPortLimit() const { return config_.op_limit == 0 ? kNoLimit : config_.op_limit / kPorts; }

  // Destination, source, EtherType IPv4, then a payload of sequence number,
  // input port and seed-derived filler; the egress oracle rebuilds it.
  void FillFrame(MacAddress dst, usize port, u64 seq, std::array<u8, kFrameBytes>& out) const {
    const u64 d = dst.ToU48();
    const u64 s = HostMac(port).ToU48();
    for (int i = 0; i < 6; ++i) {
      out[i] = static_cast<u8>(d >> (8 * (5 - i)));
      out[6 + i] = static_cast<u8>(s >> (8 * (5 - i)));
    }
    out[12] = 0x08;
    out[13] = 0x00;
    for (int i = 0; i < 8; ++i) {
      out[14 + i] = static_cast<u8>(seq >> (8 * i));
    }
    out[22] = static_cast<u8>(port);
    u64 fill = salt_ ^ (seq * kPorts + port);
    for (usize i = 23; i < kFrameBytes; ++i) {
      if ((i - 23) % 8 == 0) {
        fill = SplitMix(fill);
      }
      out[i] = static_cast<u8>(fill >> (8 * ((i - 23) % 8)));
    }
  }

  Picoseconds Due(usize port, u64 seq) const {
    return static_cast<Picoseconds>(base_cycle_ + phase_cycles_[port]) *
               target_->sim().cycle_period_ps() +
           static_cast<Picoseconds>(seq) * frame_ps_;
  }

  void InjectChunk(u64 frames_per_port) {
    std::array<u8, kFrameBytes> bytes;
    for (u64 k = 0; k < frames_per_port; ++k) {
      const u64 seq = per_port_injected_ + k;
      for (usize p = 0; p < kPorts; ++p) {
        FillFrame(HostMac((p + 1) % kPorts), p, seq, bytes);
        // The first frame sets the port's phase; the port model spaces every
        // later one by exactly one serialization time (line rate).
        const Cycle earliest = seq == 0 ? base_cycle_ + phase_cycles_[p] : 0;
        target_->Inject(static_cast<u8>(p), Packet(std::vector<u8>(bytes.begin(), bytes.end())),
                        earliest);
      }
    }
    per_port_injected_ += frames_per_port;
    attempted_ += frames_per_port * kPorts;
  }

  void RunUntilEgressed(u64 per_port) {
    const u64 total = per_port * kPorts;
    if (egressed_ < total) {
      target_->RunUntilEgressCount(static_cast<usize>(total - egressed_), kSwitchRunLimit);
    }
    std::array<u8, kFrameBytes> expected;
    for (const EgressFrame& e : target_->TakeEgress()) {
      ++egressed_;
      Check(e, expected);
    }
  }

  // Egress oracle: right port, in sequence per input port (no loss,
  // duplicate or reorder), bytes unchanged.
  void Check(const EgressFrame& e, std::array<u8, kFrameBytes>& expected) {
    const Packet& f = e.frame;
    Fold(digest_, e.port);
    Fold(digest_, static_cast<u64>(f.egress_time()));
    if (e.port >= kPorts || f.size() != kFrameBytes) {
      Fail("egress frame on port " + std::to_string(e.port) + " with " +
           std::to_string(f.size()) + " bytes");
      return;
    }
    const usize q = e.port;
    const usize from = (q + kPorts - 1) % kPorts;
    u64 seq = 0;
    for (int i = 0; i < 8; ++i) {
      seq |= static_cast<u64>(f[14 + i]) << (8 * i);
    }
    Fold(digest_, seq);
    if (f[22] != from) {
      Fail("frame from port " + std::to_string(f[22]) + " egressed on port " +
           std::to_string(q));
      return;
    }
    if (seq != next_seq_[q]) {
      if (seq > next_seq_[q]) {
        Fail("port " + std::to_string(q) + ": frames " + std::to_string(next_seq_[q]) + ".." +
                 std::to_string(seq - 1) + " lost",
             seq - next_seq_[q]);
        next_seq_[q] = seq + 1;
      } else {
        Fail("port " + std::to_string(q) + ": frame " + std::to_string(seq) +
             " duplicated or reordered");
      }
      return;
    }
    ++next_seq_[q];
    FillFrame(HostMac(q), from, seq, expected);
    if (std::memcmp(f.bytes().data(), expected.data(), kFrameBytes) != 0) {
      Fail("port " + std::to_string(q) + ": frame " + std::to_string(seq) + " altered");
      return;
    }
    const Picoseconds due = Due(from, seq);
    if (f.ingress_time() != due) {
      ++late_;
    }
    ++completed_;
    if (seq * kPorts + from < kSwitchFidelityFrames) {
      rtt_.Add(f.egress_time() - due);
    }
  }

  void StartObservers() {
    timed_ = true;
    kernel_.Add(target_->sim().ProfileReport(), "switch_", -1);
    if (config_.profile) {
      target_->sim().SetProfilingMode(ProfilingMode::kFull);
    }
  }

  WorkloadConfig config_;
  std::unique_ptr<LearningSwitch> service_;
  std::unique_ptr<FpgaTarget> target_;
  std::array<Cycle, kPorts> phase_cycles_{};
  u64 salt_ = 0;
  Cycle base_cycle_ = 0;
  Picoseconds frame_ps_ = 0;
  u64 per_port_injected_ = 0;
  u64 chunks_done_ = 0;
  u64 egressed_ = 0;
  std::array<u64, kPorts> next_seq_{};
  u64 digest_ = kFnvOffset;
  bool timed_ = false;
  KernelTotals kernel_;
};

// ============================================================================
// memcached_cluster: Table 4's memcached service, clustered. Four memcached
// ServiceNodes, each with its own memaslap client host (8 shards) on a 20 us
// interconnect; 90/10 GET/SET at 1 request/us per client after a full
// prewarm.
// ============================================================================

constexpr usize kClusterNodes = 4;
constexpr usize kClusterKeySpace = 1024;
constexpr usize kClusterChunkEvents = 100'000;
constexpr u64 kClusterFidelityOpsPerClient = 25'000;

class MemcachedCluster final : public MemaslapWorkload {
 public:
  explicit MemcachedCluster(const WorkloadConfig& config) : MemaslapWorkload(config) {}

  bool Build() override {
    Rng rng(config_.seed);
    const usize value_bytes = 8 + rng.NextBelow(25);
    std::vector<Service*> services;
    std::vector<HostSpec> hosts;
    std::vector<MemcachedConfig> configs;
    for (usize i = 0; i < kClusterNodes; ++i) {
      MemcachedConfig config;
      config.mac = MacAddress::FromU48(0x02'00'00'00'ee'00ULL + i);
      config.ip = Ipv4Address(10, 0, 0, static_cast<u8>(200 + i));
      configs.push_back(config);
      services_.push_back(std::make_unique<MemcachedService>(config));
      services.push_back(services_.back().get());
      hosts.push_back({"c" + std::to_string(i), MacAddress::FromU48(0x02'00'00'00'c1'00ULL + i),
                       Ipv4Address(10, 0, 0, static_cast<u8>(50 + i))});
    }
    StarTopologyConfig link;
    link.link_delay = 20 * kPicosPerMicro;
    topo_ = std::make_unique<ShardedTopology>(services, hosts, link);
    clients_.resize(kClusterNodes);
    for (usize i = 0; i < kClusterNodes; ++i) {
      MemaslapConfig mc;
      mc.server_mac = configs[i].mac;
      mc.server_ip = configs[i].ip;
      mc.client_mac = hosts[i].mac;
      mc.client_ip = hosts[i].ip;
      mc.key_space = kClusterKeySpace;
      mc.value_bytes = value_bytes;
      mc.seed = SplitMix(config_.seed * kClusterNodes + i);
      McClient& c = clients_[i];
      c.host = &topo_->host(i);
      c.gen = std::make_unique<MemaslapLoadgen>(mc);
      c.fidelity_ops = kClusterFidelityOpsPerClient;
      McClient* client = &c;
      c.host->SetApp([client](SimHost&, Packet frame) { client->OnReply(frame); });
    }
    return true;
  }

  bool Warm() override {
    if (!Prewarm(5 * kPicosPerMicro, kPicosPerMicro)) {
      return false;
    }
    const Picoseconds t0 = static_cast<Picoseconds>(kClusterKeySpace + 300) * kPicosPerMicro;
    return StartGenerators(t0, kPicosPerMicro);
  }

  void CollectLayers(double ops, LayerReport& report) const override {
    ReportRunner(ledger_, begin_, end_, ops, report);
    ReportKernel(kernel_, kMemcachedResume, ops, report);
    report.unavailable["chain."] = "no chain in this workload";
    report.unavailable["services.l1_"] = "no chain L1 tier in this workload";
    report.unavailable[kSwitchResume] = "no learning switch in this workload";
  }

 protected:
  ParallelRunner& runner() override { return topo_->runner(); }
  usize chunk_events() const override { return kClusterChunkEvents; }
  void Send(McClient& c, Packet frame) override { c.host->Send(std::move(frame)); }

  void StartExtraObservers() override {
    for (usize i = 0; i < kClusterNodes; ++i) {
      Simulator& sim = topo_->node(i).target().sim();
      kernel_.Add(sim.ProfileReport(), "mc_", -1);
      if (config_.profile) {
        sim.SetProfilingMode(ProfilingMode::kFull);
      }
    }
  }

  void SnapshotExtraObservers() override {
    for (usize i = 0; i < kClusterNodes; ++i) {
      Simulator& sim = topo_->node(i).target().sim();
      kernel_.Add(sim.ProfileReport(), "mc_", +1);
      sim.SetProfilingMode(ProfilingMode::kOff);
    }
  }

 private:
  std::vector<std::unique_ptr<MemcachedService>> services_;
  std::unique_ptr<ShardedTopology> topo_;
  KernelTotals kernel_;
};

// ============================================================================
// chain_pipeline: specs/chain_soak.spec as written. client -> filter (FPGA)
// -> NAT -> L1 cache (capacity 64) -> pool on a learning hub, 2 us links, one
// shard per element; memaslap 90/10 over a key space larger than the L1.
// ============================================================================

constexpr usize kChainKeySpace = 200;
constexpr Picoseconds kChainGap = 25 * kPicosPerMicro;
constexpr usize kChainChunkEvents = 20'000;
constexpr u64 kChainFidelityOps = 5'000;

struct ChainCounters {
  u64 shed = 0;
  u64 lost = 0;
  u64 stalls = 0;
  u64 credits = 0;

  static ChainCounters Of(ChainRuntime& chain) {
    ChainCounters c;
    c.shed = chain.source_shed();
    for (usize i = 0; i < chain.stage_count(); ++i) {
      c.lost += chain.stage(i).lost_backpressure();
      c.stalls += chain.stage(i).egress_stalls();
      c.credits += chain.stage(i).credits_sent();
    }
    return c;
  }
};

class ChainPipeline final : public MemaslapWorkload {
 public:
  explicit ChainPipeline(const WorkloadConfig& config) : MemaslapWorkload(config) {}

  bool Build() override {
    const auto start = std::chrono::steady_clock::now();
    Expected<ScenarioSpec> spec = ParseScenarioSpec(config_.spec_text);
    parse_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!spec.ok()) {
      error_ = "spec: " + spec.status().ToString();
      return false;
    }
    Expected<std::unique_ptr<Scenario>> built = BuildScenario(*spec);
    if (!built.ok() || !(*built)->has_chain) {
      error_ = built.ok() ? "spec declares no chain" : built.status().ToString();
      return false;
    }
    scenario_ = std::move(*built);
    SimHost& source = scenario_->topology.host(scenario_->source_host);
    Rng rng(config_.seed);
    MemaslapConfig mc;
    const MemcachedConfig server = CanonicalMemcachedConfig();
    mc.server_mac = server.mac;
    mc.server_ip = server.ip;
    mc.client_mac = source.mac();
    mc.client_ip = source.ip();
    mc.key_space = kChainKeySpace;
    mc.value_bytes = 8 + rng.NextBelow(25);
    mc.seed = SplitMix(config_.seed);
    clients_.resize(1);
    McClient& c = clients_[0];
    c.host = &source;
    c.gen = std::make_unique<MemaslapLoadgen>(mc);
    c.fidelity_ops = kChainFidelityOps;
    c.miss_ok = true;  // the L1 tier evicts; the pool only ever sees misses
    McClient* client = &c;
    scenario_->chain.SetSourceReplyHandler([client](Packet frame) { client->OnReply(frame); });
    return true;
  }

  bool Warm() override {
    if (!Prewarm(kChainGap, kChainGap)) {
      return false;
    }
    const Picoseconds t0 = static_cast<Picoseconds>(kChainKeySpace + 40) * kChainGap;
    return StartGenerators(t0, kChainGap);
  }

  void CollectLayers(double ops, LayerReport& report) const override {
    ReportRunner(ledger_, begin_, end_, ops, report);
    auto& v = report.values;
    v["chain.source_shed"] = static_cast<double>(chain_end_.shed - chain_begin_.shed);
    v["chain.lost_backpressure"] = static_cast<double>(chain_end_.lost - chain_begin_.lost);
    v["chain.egress_stalls"] = PerOp(static_cast<double>(chain_end_.stalls - chain_begin_.stalls), ops);
    v["chain.credits_per_op"] =
        PerOp(static_cast<double>(chain_end_.credits - chain_begin_.credits), ops);
    v["chain.parse_s"] = parse_s_;
    const McClient& c = clients_[0];
    v["services.l1_hit_ratio"] =
        c.gets > 0 ? static_cast<double>(c.get_hits) / static_cast<double>(c.gets) : 0;
    const std::string why =
        "ChainStageNode does not expose its target, so no Simulator is reachable from outside "
        "the library";
    report.unavailable["hdl."] = why;
    report.unavailable[kSwitchResume] = why;
    report.unavailable[kMemcachedResume] = why;
  }

 protected:
  ParallelRunner& runner() override { return scenario_->topology.runner(); }
  usize chunk_events() const override { return kChainChunkEvents; }

  // The source sheds instead of queueing when it holds no credit; a shed
  // request gets no reply, so it leaves the outstanding table as a failure.
  void Send(McClient& c, Packet frame) override {
    const u16 id = Ipv4View(frame).identification();
    if (!scenario_->chain.SourceSend(std::move(frame))) {
      c.pending[id].live = false;
      c.Fail("request shed at the source");
    }
  }

  void StartExtraObservers() override { chain_begin_ = ChainCounters::Of(scenario_->chain); }
  void SnapshotExtraObservers() override { chain_end_ = ChainCounters::Of(scenario_->chain); }

  void FinalChecks() override {
    std::vector<Finding> findings;
    scenario_->chain.CollectFindings(findings);
    for (const Finding& f : findings) {
      AddOwnFailure(f.ToString());
    }
  }

  u64 ExtraDigest() const override { return scenario_->chain.Digest(); }

 private:
  std::unique_ptr<Scenario> scenario_;
  double parse_s_ = 0;
  ChainCounters chain_begin_;
  ChainCounters chain_end_;
};

}  // namespace

double RttHistogram::QuantileUs(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  // Nearest rank: the smallest value with at least ceil(q * n) samples at or
  // below it.
  const double exact = q * static_cast<double>(total_);
  u64 rank = static_cast<u64>(exact);
  if (static_cast<double>(rank) < exact) {
    ++rank;
  }
  rank = std::max<u64>(1, std::min(rank, total_));
  u64 seen = 0;
  for (const auto& [value, count] : counts_) {
    seen += count;
    if (seen >= rank) {
      return static_cast<double>(value) / static_cast<double>(kPicosPerMicro);
    }
  }
  return static_cast<double>(counts_.rbegin()->first) / static_cast<double>(kPicosPerMicro);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadConfig& config) {
  if (name == "switch_line_rate") {
    return std::make_unique<SwitchLineRate>(config);
  }
  if (name == "memcached_cluster") {
    return std::make_unique<MemcachedCluster>(config);
  }
  if (name == "chain_pipeline") {
    return std::make_unique<ChainPipeline>(config);
  }
  return nullptr;
}

}  // namespace emu::e2e
