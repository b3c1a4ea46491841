// Fault taxonomy, schedules, and plans for the emu-fault layer.
//
// A FaultClass names what an injection does (drop a frame on a link, flip a
// bit of hardware state, stall a FIFO, ...). A FaultSchedule says *when* a
// registered fault point fires: one-shot at a tick, Bernoulli(p) per
// opportunity, or a burst window with a probability inside it. A FaultPlan is
// a parsed set of (point pattern, schedule) pairs — the text form CI and the
// chaos harness pass around:
//
//   ingress.drop     bernoulli 0.01
//   ingress.corrupt  burst 10000 30000 0.25
//   mc_csum.fold     oneshot 5000
//   nat.*            bernoulli 0.001 8
//
// One entry per line (or ';'-separated), '#' comments to end of line, an
// optional trailing magnitude operand (jitter bound in ps, stall length in
// cycles — whatever the fault class reads it as; at most INT64_MAX). The
// lexical rules — comments, entries, strict decimal numbers, time suffixes,
// probabilities — are the shared ones of src/common/text.h (DESIGN.md,
// "Text grammars"). Patterns match a point name exactly or by
// 'prefix*' wildcard. See fault_registry.h for the runtime half.
//
// Besides point schedules a plan may carry topology-scoped events (emu-gossip):
//
//   crash host=h2 at=500us
//   restart host=h2 at=2ms
//   partition {h0,h1}|{h2,h3} from=1ms to=3ms
//   partition {h0}|{h4} from=5ms to=6ms oneway
//
// These name whole simulated hosts, not fault points: a crash kills the host
// (state reset, in-flight frames to it are disposed), a restart boots it
// back up, and a partition blocks the named host pairs for a window —
// `oneway` blocks only the A→B direction. Times are picoseconds on the
// network-simulator timeline; the `ns`/`us`/`ms`/`s` suffixes scale. The
// events are purely deterministic (no RNG draw), applied by a ChaosDirector
// (src/sim/chaos.h) and logged to the same injection log as point firings.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace emu {

enum class FaultClass : u8 {
  kLinkDrop = 0,   // frame vanishes on the wire
  kLinkCorrupt,    // one bit of the frame flips in flight
  kLinkDuplicate,  // the frame is delivered twice
  kLinkReorder,    // the frame is held back so a later one overtakes it
  kLinkDelay,      // extra propagation jitter (magnitude = max extra ps)
  kSeuBitFlip,     // single-event upset in Reg/Bram/Cam state
  kFifoStall,      // a SyncFifo refuses both ends (magnitude = cycles)
  kTableExhaustion,  // a service table behaves as full
  kChecksumFold,     // the §5.5 carry-fold bug in a ChecksumUnit
  kHostCrash,        // a simulated host dies (topology-scoped)
  kHostRestart,      // a crashed host boots back up and rejoins
  kPartition,        // a set of host pairs becomes unreachable for a window
};

inline constexpr usize kFaultClassCount = 12;

const char* FaultClassName(FaultClass cls);

struct FaultSchedule {
  enum class Mode : u8 { kDisabled = 0, kOneShot, kBernoulli, kBurst };

  Mode mode = Mode::kDisabled;
  u64 at = 0;               // one-shot: fires on the first opportunity >= at
  double probability = 0.0;  // Bernoulli / burst: P(fire) per opportunity
  u64 from = 0;             // burst window [from, until)
  u64 until = 0;
  // Class-specific strength: max extra delay in ps (kLinkDelay), stall length
  // in cycles (kFifoStall); ignored by classes without a magnitude.
  u64 magnitude = 0;

  static FaultSchedule OneShot(u64 at) {
    FaultSchedule s;
    s.mode = Mode::kOneShot;
    s.at = at;
    return s;
  }
  static FaultSchedule Bernoulli(double p, u64 magnitude = 0) {
    FaultSchedule s;
    s.mode = Mode::kBernoulli;
    s.probability = p;
    s.magnitude = magnitude;
    return s;
  }
  static FaultSchedule Burst(u64 from, u64 until, double p, u64 magnitude = 0) {
    FaultSchedule s;
    s.mode = Mode::kBurst;
    s.from = from;
    s.until = until;
    s.probability = p;
    s.magnitude = magnitude;
    return s;
  }

  bool armed() const { return mode != Mode::kDisabled; }
  std::string ToString() const;
};

// One logged injection: enough to attribute any downstream failure to the
// exact fault that caused it, and (with the plan + seed) to replay it.
struct FaultEvent {
  u64 tick = 0;       // cycle (hardware points) or ps (link points)
  std::string site;   // fault-point name
  FaultClass cls = FaultClass::kLinkDrop;
  u64 detail = 0;  // class-specific: bit index, extra ps, stall cycles, ...
  // Per-site fire ordinal (1-based). Each site is sampled by exactly one
  // shard in deterministic order, so (tick, site, seq) is a canonical sort
  // key for the whole log even when several shards append concurrently —
  // what keeps LogDigest thread-count independent on impaired routed links.
  u64 seq = 0;

  std::string ToString() const;
};

struct FaultPlanEntry {
  std::string pattern;  // exact name or 'prefix*'
  FaultSchedule schedule;
};

// One topology-scoped event: a host crash/restart at a tick, or a partition
// window over two host groups. Hosts are named, not pattern-matched — the
// lint pass (CheckTopoFaults, src/analysis/elab) validates names against the
// topology so a typo'd host fails before the campaign silently does nothing.
struct TopoFault {
  enum class Kind : u8 { kCrash = 0, kRestart, kPartition };

  Kind kind = Kind::kCrash;
  std::string host;                 // crash/restart subject
  std::vector<std::string> group_a;  // partition sides
  std::vector<std::string> group_b;
  u64 at = 0;                // crash/restart: event time (ps)
  u64 from = 0;              // partition window [from, until) in ps
  u64 until = 0;
  bool oneway = false;       // partition: block only A→B
  usize line = 0;            // plan line, for diagnostics

  FaultClass cls() const {
    switch (kind) {
      case Kind::kCrash: return FaultClass::kHostCrash;
      case Kind::kRestart: return FaultClass::kHostRestart;
      case Kind::kPartition: return FaultClass::kPartition;
    }
    return FaultClass::kHostCrash;
  }

  std::string ToString() const;
};

struct FaultPlan {
  std::vector<FaultPlanEntry> entries;
  std::vector<TopoFault> topo_events;

  bool empty() const { return entries.empty() && topo_events.empty(); }
};

// True when `name` matches `pattern` (exact, or prefix when the pattern ends
// in '*').
bool FaultPatternMatches(const std::string& pattern, const std::string& name);

// Parses the plan text format described above. Entries are separated by
// newlines or ';'; blank entries and '#' comments are skipped. Every error
// names its line: "fault plan line N: ...".
Expected<FaultPlan> ParseFaultPlan(const std::string& text);

}  // namespace emu

#endif  // SRC_FAULT_FAULT_PLAN_H_
