// FaultRegistry: the runtime half of emu-fault.
//
// Components register named fault points (a Link registers `<name>.drop`,
// `<name>.corrupt`, ...; a ChecksumUnit registers `<name>.fold`; services
// register their own — see Service::RegisterFaultPoints). A registry is
// seeded once; every point derives its own RNG stream from (registry seed,
// point name), so whether a point fires at its N-th opportunity depends only
// on the seed, the plan, and that point's own opportunity sequence — never on
// other points, registration order, or unrelated traffic. That is what makes
// a chaos run replay bit-exactly from `--seed`.
//
// Arming: Arm(pattern, schedule) applies to every matching point, present
// and future (patterns are kept and re-checked at registration). Every
// firing is appended to the injection log with tick, site, and class, so a
// failing run identifies the exact faults that preceded it.
//
// Callback targets: state that cannot poll the registry itself (a bit of
// Bram, a FIFO's stall input) is registered as a callback; Tick(tick)
// samples those points once and applies the callback on fire. The chaos
// harness calls Tick once per simulated cycle.
#ifndef SRC_FAULT_FAULT_REGISTRY_H_
#define SRC_FAULT_FAULT_REGISTRY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/fault/fault_plan.h"

namespace emu {

class FaultRegistry;
class MetricsRegistry;

class FaultPoint {
 public:
  FaultPoint(FaultRegistry& registry, std::string name, FaultClass cls, u64 rng_seed)
      : registry_(registry), name_(std::move(name)), cls_(cls), rng_(rng_seed) {}

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }
  FaultClass cls() const { return cls_; }
  const FaultSchedule& schedule() const { return schedule_; }
  bool armed() const { return schedule_.armed(); }

  u64 opportunities() const { return opportunities_; }
  u64 fired() const { return fired_; }

  // One injection opportunity at `tick`. Returns whether the fault fires;
  // a firing is logged in the owning registry with `detail` drawn by the
  // caller via NextDetail() (0 when the class has no detail).
  bool Sample(u64 tick, u64 detail = 0);

  // Class-specific detail draw (bit index, byte offset, ...) from this
  // point's own stream — uniform in [0, bound). bound must be > 0.
  u64 NextDetail(u64 bound) { return rng_.NextBelow(bound); }

  // Magnitude operand from the armed schedule (stall cycles, max jitter ps).
  u64 magnitude() const { return schedule_.magnitude; }

 private:
  friend class FaultRegistry;

  FaultRegistry& registry_;
  std::string name_;
  FaultClass cls_;
  Rng rng_;
  FaultSchedule schedule_;
  u64 opportunities_ = 0;
  u64 fired_ = 0;
  bool oneshot_done_ = false;
};

class FaultRegistry {
 public:
  explicit FaultRegistry(u64 seed) : seed_(seed) {}

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  u64 seed() const { return seed_; }

  // Registers (or returns the existing) point `name`. Points live as long as
  // the registry; components keep the returned pointer.
  FaultPoint* Register(const std::string& name, FaultClass cls);
  FaultPoint* Find(const std::string& name);

  // Registers state-corruption targets sampled by Tick(): an SEU target is a
  // flipper over `bit_count` bits of some component's state; a stall target
  // receives the armed schedule's magnitude (cycles).
  FaultPoint* RegisterSeuTarget(const std::string& name, u64 bit_count,
                                std::function<void(u64 bit)> flip);
  FaultPoint* RegisterStallTarget(const std::string& name,
                                  std::function<void(u64 cycles)> stall);

  // Samples every armed callback target once at `tick`; applies the
  // callbacks of those that fire. Returns how many fired.
  usize Tick(u64 tick);

  // --- Quiescence support (Simulator fast path) ---
  //
  // Earliest tick >= `tick` at which Tick() must actually execute for the
  // injection log and RNG streams to stay bit-identical to per-tick
  // sampling, or kNeverDemands when no armed callback target needs it.
  // SEU targets (a detail draw per tick) and Bernoulli schedules demand
  // every tick; a oneshot stall target only demands its firing tick and a
  // burst stall target only its window. Disarmed targets never demand
  // (their Tick() is a no-op by construction).
  static constexpr u64 kNeverDemands = ~u64{0};
  u64 NextTickDemand(u64 tick) const;

  // Accounts `count` ticks skipped by a quiescent fast-forward: armed
  // callback targets that did not demand sampling over the window still saw
  // one injection opportunity per tick, so their opportunity counters match
  // per-tick sampling exactly.
  void NoteSkippedTicks(u64 count);

  // Arms every matching point, present and future. Returns how many existing
  // points matched (future registrations also pick the schedule up).
  usize Arm(const std::string& pattern, const FaultSchedule& schedule);
  usize ArmPlan(const FaultPlan& plan);
  void DisarmAll();

  // Tick->picosecond scale for the trace timeline (emu-scope): firings are
  // logged in ticks, but a trace instant needs absolute time. Set by
  // Simulator::AttachFaultRegistry from its clock period; 0 (the default)
  // leaves firings untraced.
  void set_trace_tick_period_ps(Picoseconds period) { trace_tick_period_ps_ = period; }
  Picoseconds trace_tick_period_ps() const { return trace_tick_period_ps_; }

  // Registers fired_total (counter) and points/armed_points (gauges) under
  // `prefix` (e.g. "faults").
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

  // --- Injection log ---
  // Appends a topology-scoped event (host crash/restart, partition window)
  // to the injection log. These are deterministic — no RNG draw and no fault
  // point — so a ChaosDirector logs the whole campaign up front, in time
  // order, before any shard thread runs; LogDigest then covers node-level
  // chaos without any cross-thread logging at fire time.
  void LogTopoEvent(u64 tick, const std::string& site, FaultClass cls, u64 detail = 0);

  // The raw log in append order. On a run where several link components
  // sample points of one registry (per-direction impairment on the uplinks
  // of a cluster) the append interleaving is thread-dependent; use
  // CanonicalLog()/LogDigest() for order-independent views. Read after
  // Run() returns.
  const std::vector<FaultEvent>& log() const { return log_; }
  u64 fired_total() const { return log_.size(); }
  // The log sorted by (tick, site, per-site fire ordinal) — a canonical
  // order independent of which thread appended first.
  std::vector<FaultEvent> CanonicalLog() const;
  // FNV-1a over the canonical log: two runs injected identically iff equal,
  // for any thread count.
  u64 LogDigest() const;
  std::string Summary() const;

  const std::vector<std::unique_ptr<FaultPoint>>& points() const { return points_; }

 private:
  friend class FaultPoint;

  struct CallbackTarget {
    FaultPoint* point = nullptr;
    u64 detail_bound = 0;                  // SEU: bits; stall: 0 (uses magnitude)
    std::function<void(u64)> apply;
  };

  void LogFire(const FaultPoint& point, u64 tick, u64 detail);

  u64 seed_;
  std::vector<std::unique_ptr<FaultPoint>> points_;
  std::vector<CallbackTarget> callback_targets_;
  std::vector<FaultPlanEntry> armed_patterns_;  // replayed onto new points
  // Guards log_ appends: points in different link components (the uplinks
  // of a cluster impaired through one registry) fire concurrently on a
  // queued run. Registration, arming, and every read stay single-threaded
  // around Run() as before.
  mutable std::mutex log_mu_;
  std::vector<FaultEvent> log_;
  u64 topo_seq_ = 0;  // ordinal stream for LogTopoEvent sites
  Picoseconds trace_tick_period_ps_ = 0;
};

}  // namespace emu

#endif  // SRC_FAULT_FAULT_REGISTRY_H_
