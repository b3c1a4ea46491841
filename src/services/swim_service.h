// SWIM membership (emu-gossip): weakly-consistent failure detection over the
// event-driven simulator, after Das, Gupta & Motivala's SWIM and the
// membership-protocol assignment stack in SNIPPETS.md (EmulNet/MP1Node).
//
// One SwimPeer runs on every SimHost of a hub topology
// (TopologyBuilder::BuildHub). Each protocol period the peer pings one
// member (randomized round-robin: a seed-stable shuffle of the member list,
// reshuffled when exhausted); if no ack arrives within
// the direct timeout it asks `ping_req_fanout` random proxies to ping the
// target on its behalf (indirect probe), and if the full probe window
// closes unacked the target becomes *suspected*. Suspicion is gossiped;
// after `suspicion_periods` protocol periods without refutation the peer
// declares the target *dead*. A suspected member that hears about its own
// suspicion refutes it by bumping its incarnation number and gossiping
// Alive{inc+1} — precedence is (incarnation, state): higher incarnation
// always wins, and at equal incarnation Dead > Suspect > Alive.
//
// Dissemination is infection-style: every protocol message carries up to
// `max_piggyback` membership updates, each retransmitted a bounded number of
// times; there are no broadcast rounds.
//
// Crash/restart integration: the peer is wired to the host's lifecycle
// (SimHost::SetOnRestart). While the host is down the peer is silent — its
// timers keep their cadence but do nothing, and the host disposes arriving
// frames. When the restart completes the peer resets its protocol state,
// bumps its incarnation past anything that circulated about it (the
// incarnation counter models stable storage: it survives the reboot), and
// rejoins by sending Join to a few random members; JoinAck replies carry a
// full membership snapshot.
//
// Determinism: all of a peer's state lives on its host's shard and is only
// touched from that shard's thread (frame delivery + EventScheduler timers).
// Randomness comes from the peer's own seeded Rng via the seed-stable
// rng::Shuffle/PickK helpers, so membership-event logs and their digests are
// bit-exact across replays and ParallelRunner thread counts.
#ifndef SRC_SERVICES_SWIM_SERVICE_H_
#define SRC_SERVICES_SWIM_SERVICE_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/histogram.h"
#include "src/net/udp.h"
#include "src/sim/sim_host.h"

namespace emu {

class MetricsRegistry;

inline constexpr u16 kSwimUdpPort = 7946;

enum class SwimState : u8 { kAlive = 0, kSuspect = 1, kDead = 2 };
const char* SwimStateName(SwimState state);

enum class SwimMessageType : u8 {
  kPing = 0,
  kAck = 1,
  kPingReq = 2,
  kJoin = 3,
  kJoinAck = 4,
};

// Static cluster directory: member id -> addresses. Every peer gets the same
// list; ids are indices into it.
struct SwimMember {
  std::string name;
  MacAddress mac;
  Ipv4Address ip;
};

struct SwimConfig {
  Picoseconds protocol_period = 1 * kPicosPerMilli;
  // Probe deadlines, measured from the probe's start: direct ack by
  // `direct_timeout` or the indirect phase begins; any ack by
  // `indirect_timeout` or the target is suspected. Must both be < period.
  Picoseconds direct_timeout = 200 * kPicosPerMicro;
  Picoseconds indirect_timeout = 600 * kPicosPerMicro;
  u32 suspicion_periods = 3;   // suspect -> dead after this many periods
  usize ping_req_fanout = 2;   // indirect-probe proxies, and Join targets
  usize max_piggyback = 6;     // membership updates per message
  u32 gossip_transmissions = 4;  // times each update is piggybacked
  // Protocol stop time: no probe round starts at or past this simulated
  // time. Responses (acks, relays, join acks) still flow so probes already
  // in flight complete instead of turning into spurious end-of-run
  // suspicions; response chains are finite, so a topology Run() reaches
  // quiescence shortly after. 0 keeps the protocol running forever — only
  // use under RunUntil.
  Picoseconds run_until = 0;
};

// One membership-table transition as observed by one peer — the protocol's
// flight recorder. The harness derives detection latency, false positives,
// and rejoin convergence from these, and digests them for replay checks.
struct SwimEvent {
  Picoseconds at = 0;
  u16 observer = 0;
  u16 subject = 0;
  SwimState state = SwimState::kAlive;
  u32 incarnation = 0;
};

class SwimPeer {
 public:
  // `seed` feeds this peer's private Rng (pass e.g. run_seed ^ id). The
  // member list must be identical on every peer; `id` indexes it.
  SwimPeer(SimHost& host, u16 id, std::vector<SwimMember> members, SwimConfig config,
           u64 seed);

  // Installs the host hooks (App + OnRestart) and schedules the first
  // protocol tick, staggered by id so peers do not probe in lockstep.
  void Start();

  u16 id() const { return id_; }
  u32 incarnation() const { return incarnation_; }
  SwimState StateOf(u16 member) const { return table_[member].state; }
  u32 IncarnationOf(u16 member) const { return table_[member].incarnation; }

  const std::vector<SwimEvent>& events() const { return events_; }
  // FNV-1a over the serialized event log; equal iff the peer observed the
  // same transitions at the same simulated times.
  u64 EventsDigest() const;

  u64 pings_sent() const { return pings_sent_; }
  u64 acks_received() const { return acks_received_; }
  u64 ping_reqs_sent() const { return ping_reqs_sent_; }
  u64 joins_sent() const { return joins_sent_; }
  u64 suspects_declared() const { return suspects_declared_; }
  u64 deads_declared() const { return deads_declared_; }
  u64 refutations() const { return refutations_; }
  u64 malformed() const { return malformed_; }

  // Piggybacked updates per sent message.
  const Histogram& gossip_fanout() const { return gossip_fanout_; }

  // Registers the peer's counters and the gossip-fanout histogram under
  // `prefix` (e.g. "swim.h3").
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

 private:
  struct MemberRecord {
    SwimState state = SwimState::kAlive;
    u32 incarnation = 0;
    u64 suspect_epoch = 0;  // invalidates stale death checks
  };
  struct GossipUpdate {
    u16 subject = 0;
    SwimState state = SwimState::kAlive;
    u32 incarnation = 0;
    u32 sends_left = 0;
  };
  struct Probe {
    u32 seq = 0;
    u16 target = 0;
    bool acked = false;
    bool active = false;
  };
  struct Relay {  // pending ping-req forward: who asked us about whom
    u32 seq = 0;
    u16 origin = 0;
    u16 subject = 0;
  };

  Picoseconds Now() const { return host_.scheduler().now(); }
  bool CanSend() const { return host_.up(); }
  // Gates new probe rounds only: a responder must keep answering past
  // run_until or the unanswered ping reads as a death at the horizon.
  bool ProtocolActive() const {
    return config_.run_until == 0 || Now() < config_.run_until;
  }

  void OnFrame(Packet frame);
  void OnRestart();
  void Tick();
  void ScheduleTick(Picoseconds at);
  void DirectTimeout(u32 seq);
  void IndirectTimeout(u32 seq);
  void DeathCheck(u16 subject, u64 epoch);

  void HandlePing(u16 from, u32 seq, u16 subject);
  void HandleAck(u16 from, u32 seq, u16 subject);
  void HandlePingReq(u16 from, u32 seq, u16 subject);
  void HandleJoin(u16 from, u32 seq);
  void HandleJoinAck();

  // Merges one membership assertion through the (incarnation, state)
  // precedence rules; logs, gossips, and schedules suspicion expiry on
  // change. Assertions about self turn into refutations.
  void ApplyUpdate(u16 subject, SwimState state, u32 incarnation);
  void EnqueueGossip(u16 subject, SwimState state, u32 incarnation);
  void LogEvent(u16 subject, SwimState state, u32 incarnation);

  // Next randomized-round-robin probe target; members_.size() when none.
  u16 NextTarget();
  // Up to `k` random non-dead members, excluding self and `exclude`.
  std::vector<u16> PickMembers(usize k, u16 exclude);

  void SendSwim(u16 to, SwimMessageType type, u32 seq, u16 subject, bool full_table);

  SimHost& host_;
  u16 id_;
  std::vector<SwimMember> members_;
  SwimConfig config_;
  Rng rng_;

  u32 incarnation_ = 0;  // survives restarts (stable storage)
  std::vector<MemberRecord> table_;
  std::vector<GossipUpdate> gossip_;
  std::vector<u16> round_;  // shuffled probe order
  usize round_pos_ = 0;
  Probe probe_;
  std::vector<Relay> relays_;
  u32 next_seq_ = 0;

  std::vector<SwimEvent> events_;
  Histogram gossip_fanout_;
  u64 pings_sent_ = 0;
  u64 acks_sent_ = 0;
  u64 acks_received_ = 0;
  u64 ping_reqs_sent_ = 0;
  u64 pings_relayed_ = 0;
  u64 joins_sent_ = 0;
  u64 join_acks_sent_ = 0;
  u64 suspects_declared_ = 0;
  u64 deads_declared_ = 0;
  u64 refutations_ = 0;
  u64 gossip_entries_sent_ = 0;
  u64 malformed_ = 0;
};

// Simulated-time bound by which every up member must have declared a member
// dead after it crashed (the gossip_soak completeness invariant): worst-case
// randomized round-robin delay until every peer has probed or heard, plus
// the suspicion window, plus slack for gossip propagation.
Picoseconds SwimDetectionBound(const SwimConfig& config, usize cluster_size);

}  // namespace emu

#endif  // SRC_SERVICES_SWIM_SERVICE_H_
