// emu-gossip: SWIM membership over the hub shape under node-level chaos.
//
// Each test builds a small cluster (one SwimPeer per SimHost around a
// HubNode), optionally applies a topology-scoped fault plan through a
// ChaosDirector, runs the ParallelRunner to quiescence, and asserts on the
// peers' membership-event logs: detection of real crashes within the
// SwimDetectionBound, refutation of partition-induced false positives,
// rejoin after restart, and bit-exact digests across thread counts and
// replays.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/fnv.h"
#include "src/common/status.h"
#include "src/core/metrics.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/services/swim_service.h"
#include "src/sim/chaos.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

constexpr Picoseconds kBootDelay = 5 * kPicosPerMilli;

std::vector<SwimMember> ClusterMembers(usize hosts) {
  std::vector<SwimMember> members;
  for (usize i = 0; i < hosts; ++i) {
    members.push_back(SwimMember{"h" + std::to_string(i),
                                 MacAddress::FromU48(0x02'00'00'00'b0'00ull + i),
                                 Ipv4Address(10, 0, 0, static_cast<u8>(1 + i))});
  }
  return members;
}

SwimConfig TestSwimConfig(u64 run_ms) {
  SwimConfig config;
  config.run_until = static_cast<Picoseconds>(run_ms) * kPicosPerMilli;
  return config;
}

// A cluster under test: topology, chaos wiring, and one peer per host.
struct Cluster {
  std::unique_ptr<TopologyBuilder> topo;
  std::unique_ptr<FaultRegistry> registry;
  std::unique_ptr<ChaosDirector> director;
  std::vector<std::unique_ptr<SwimPeer>> peers;
  Status apply_status;
  SwimConfig config;
  u64 events_executed = 0;

  u64 Run(usize threads) {
    ParallelRunOptions opts;
    opts.threads = threads;
    events_executed = topo->Run(opts);
    return events_executed;
  }

  u64 SwimDigest() const {
    u64 combined = fnv::kOffset;
    for (const auto& peer : peers) {
      combined = fnv::Mix(combined, peer->EventsDigest());
    }
    return combined;
  }
};

Cluster MakeCluster(usize hosts, u64 seed, u64 run_ms, const std::string& plan_text) {
  Cluster c;
  c.config = TestSwimConfig(run_ms);
  const std::vector<SwimMember> members = ClusterMembers(hosts);
  std::vector<HostSpec> specs;
  for (const SwimMember& m : members) {
    specs.push_back(HostSpec{m.name, m.mac, m.ip});
  }
  StarTopologyConfig net;
  net.link_delay = 50 * kPicosPerMicro;  // SWIM runs at ms scale; fat lookahead
  c.topo = std::make_unique<TopologyBuilder>();
  c.topo->BuildHub(specs, net);
  c.registry = std::make_unique<FaultRegistry>(seed);
  c.director = std::make_unique<ChaosDirector>(*c.topo, c.registry.get());
  c.director->set_boot_delay(kBootDelay);
  if (!plan_text.empty()) {
    const Expected<FaultPlan> plan = ParseFaultPlan(plan_text);
    c.apply_status = plan.ok() ? c.director->Apply(*plan) : plan.status();
  }
  for (usize i = 0; i < hosts; ++i) {
    c.peers.push_back(std::make_unique<SwimPeer>(
        c.topo->host(i), static_cast<u16>(i), members, c.config,
        seed ^ (0x9E37'79B9'7F4A'7C15ull * (i + 1))));
    c.peers.back()->Start();
  }
  return c;
}

// --- Steady state ------------------------------------------------------------

TEST(Swim, SteadyStateKeepsEveryoneAlive) {
  Cluster c = MakeCluster(4, 11, 30, "");
  c.Run(1);
  for (const auto& peer : c.peers) {
    EXPECT_GT(peer->acks_received(), 0u) << "peer " << peer->id();
    EXPECT_EQ(peer->suspects_declared(), 0u) << "peer " << peer->id();
    EXPECT_EQ(peer->deads_declared(), 0u) << "peer " << peer->id();
    EXPECT_EQ(peer->malformed(), 0u) << "peer " << peer->id();
    for (usize m = 0; m < c.peers.size(); ++m) {
      EXPECT_EQ(peer->StateOf(static_cast<u16>(m)), SwimState::kAlive)
          << "peer " << peer->id() << " about h" << m;
    }
  }
  // run_until gates new probe rounds, so the run reaches quiescence on its
  // own instead of exhausting the event budget.
  EXPECT_LT(c.events_executed, 1'000'000u);
}

// --- Crash detection ---------------------------------------------------------

TEST(Swim, CrashDetectedByEveryPeerWithinBound) {
  constexpr usize kHosts = 5;
  constexpr Picoseconds kCrashAt = 5 * kPicosPerMilli;
  Cluster c = MakeCluster(kHosts, 21, 60, "crash host=h1 at=5ms");
  ASSERT_TRUE(c.apply_status.ok()) << c.apply_status.ToString();
  c.Run(1);
  const Picoseconds bound = SwimDetectionBound(c.config, kHosts);
  for (const auto& peer : c.peers) {
    if (peer->id() == 1) {
      continue;
    }
    EXPECT_EQ(peer->StateOf(1), SwimState::kDead) << "peer " << peer->id();
    Picoseconds declared_at = 0;
    for (const SwimEvent& event : peer->events()) {
      if (event.subject == 1 && event.state == SwimState::kDead) {
        declared_at = event.at;
        break;
      }
    }
    ASSERT_GT(declared_at, 0u) << "peer " << peer->id() << " never declared h1 dead";
    EXPECT_GE(declared_at, kCrashAt);
    EXPECT_LE(declared_at, kCrashAt + bound)
        << "peer " << peer->id() << " took " << (declared_at - kCrashAt) << " ps";
  }
  EXPECT_EQ(c.topo->host(1).crashes(), 1u);
  EXPECT_FALSE(c.topo->host(1).up());
}

// --- Restart / rejoin --------------------------------------------------------

TEST(Swim, RestartRejoinsWithBumpedIncarnation) {
  Cluster c = MakeCluster(5, 31, 100, "crash host=h1 at=5ms; restart host=h1 at=30ms");
  ASSERT_TRUE(c.apply_status.ok()) << c.apply_status.ToString();
  c.Run(1);
  EXPECT_EQ(c.topo->host(1).crashes(), 1u);
  EXPECT_EQ(c.topo->host(1).restarts(), 1u);
  EXPECT_TRUE(c.topo->host(1).up());
  // The incarnation counter models stable storage: the reboot bumps it past
  // anything that circulated while the host was down.
  EXPECT_GE(c.peers[1]->incarnation(), 1u);
  EXPECT_GT(c.peers[1]->joins_sent(), 0u);
  for (const auto& peer : c.peers) {
    EXPECT_EQ(peer->StateOf(1), SwimState::kAlive)
        << "peer " << peer->id() << " still thinks h1 is "
        << SwimStateName(peer->StateOf(1));
    EXPECT_GE(peer->IncarnationOf(1), 1u) << "peer " << peer->id();
  }
}

// --- Partition false positives heal ------------------------------------------

TEST(Swim, PartitionFalsePositivesHealAfterWindowCloses) {
  // Two sides cut off from each other for 25 ms, with h2 and h5 outside the
  // partition as witnesses. Cross-side probes fail often enough to declare
  // deaths (indirect probes only mask the cut when a straddling proxy is
  // drawn), and after the window closes the witnesses carry the stale Dead
  // assertions back to their subjects, who refute with a bumped incarnation.
  // A TOTAL partition would not heal — dead members are never probed, so no
  // message would ever cross the former cut again; the witnessed shape is
  // the one the protocol guarantees convergence for (and what gossip_soak
  // runs).
  Cluster c = MakeCluster(6, 41, 120, "partition {h0,h1}|{h3,h4} from=5ms to=30ms");
  ASSERT_TRUE(c.apply_status.ok()) << c.apply_status.ToString();
  c.Run(1);
  u64 total_dead = 0;
  u64 total_refutations = 0;
  for (const auto& peer : c.peers) {
    total_dead += peer->deads_declared();
    total_refutations += peer->refutations();
  }
  // The false positives must actually have happened for the heal to mean
  // anything, and healing works by refutation, so both counters are live.
  EXPECT_GT(total_dead, 0u);
  EXPECT_GT(total_refutations, 0u);
  EXPECT_GT(c.topo->hub().partition_dropped(), 0u);
  for (const auto& peer : c.peers) {
    for (usize m = 0; m < c.peers.size(); ++m) {
      EXPECT_EQ(peer->StateOf(static_cast<u16>(m)), SwimState::kAlive)
          << "peer " << peer->id() << " about h" << m << " after heal";
    }
  }
  // No host ever crashed; every death the protocol saw was partition-induced.
  for (usize i = 0; i < c.peers.size(); ++i) {
    EXPECT_EQ(c.topo->host(i).crashes(), 0u);
  }
}

// --- Determinism -------------------------------------------------------------

TEST(Swim, DigestsBitExactAcrossThreadCountsAndReplay) {
  const std::string plan =
      "crash host=h2 at=10ms; restart host=h2 at=50ms; "
      "partition {h0,h1}|{h3,h4} from=20ms to=35ms";
  constexpr u64 kSeed = 51;
  Cluster serial = MakeCluster(6, kSeed, 80, plan);
  ASSERT_TRUE(serial.apply_status.ok()) << serial.apply_status.ToString();
  serial.Run(1);
  Cluster parallel = MakeCluster(6, kSeed, 80, plan);
  parallel.Run(4);
  Cluster replay = MakeCluster(6, kSeed, 80, plan);
  replay.Run(4);

  EXPECT_EQ(serial.SwimDigest(), parallel.SwimDigest());
  EXPECT_EQ(parallel.SwimDigest(), replay.SwimDigest());
  EXPECT_EQ(serial.registry->LogDigest(), parallel.registry->LogDigest());
  EXPECT_EQ(parallel.registry->LogDigest(), replay.registry->LogDigest());
  EXPECT_EQ(serial.events_executed, parallel.events_executed);
  EXPECT_EQ(parallel.events_executed, replay.events_executed);

  // A different seed reshuffles probe orders and jitter, so the membership
  // history (and its digest) must move.
  Cluster other = MakeCluster(6, kSeed + 1, 80, plan);
  other.Run(4);
  EXPECT_NE(parallel.SwimDigest(), other.SwimDigest());
}

// --- Chaos campaign logging --------------------------------------------------

TEST(Swim, ChaosCampaignIsLoggedUpfrontInTimeOrder) {
  Cluster c = MakeCluster(4, 61, 40,
                          "partition {h0}|{h2} from=8ms to=12ms; "
                          "crash host=h3 at=4ms; restart host=h3 at=20ms");
  ASSERT_TRUE(c.apply_status.ok()) << c.apply_status.ToString();
  // Apply() logs the whole campaign before any shard runs, sorted by time.
  const std::vector<FaultEvent>& log = c.registry->log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].cls, FaultClass::kHostCrash);
  EXPECT_EQ(log[1].cls, FaultClass::kPartition);
  EXPECT_EQ(log[2].cls, FaultClass::kHostRestart);
  EXPECT_LE(log[0].tick, log[1].tick);
  EXPECT_LE(log[1].tick, log[2].tick);
  const u64 digest_before = c.registry->LogDigest();
  c.Run(2);
  EXPECT_EQ(c.registry->LogDigest(), digest_before)
      << "running the campaign must not append to the injection log";
}

TEST(Swim, ChaosApplyRejectsUnknownHostAndSchedulesNothing) {
  Cluster c = MakeCluster(3, 71, 20, "crash host=h9 at=1ms");
  EXPECT_FALSE(c.apply_status.ok());
  EXPECT_NE(c.apply_status.ToString().find("h9"), std::string::npos)
      << c.apply_status.ToString();
  EXPECT_EQ(c.director->scheduled(), 0u);
  EXPECT_TRUE(c.registry->log().empty());
  // The cluster itself is healthy: the rejected plan changed nothing.
  c.Run(1);
  for (const auto& peer : c.peers) {
    EXPECT_EQ(peer->deads_declared(), 0u);
  }
}

// --- Metrics -----------------------------------------------------------------

TEST(Swim, MetricsExportUnderPrefix) {
  Cluster c = MakeCluster(3, 81, 20, "");
  c.Run(1);
  MetricsRegistry metrics;
  for (const auto& peer : c.peers) {
    peer->RegisterMetrics(metrics, "swim.h" + std::to_string(peer->id()));
  }
  c.topo->hub().RegisterMetrics(metrics, "hub");
  const std::optional<u64> pings = metrics.TryGet("swim.h0.pings_sent");
  ASSERT_TRUE(pings.has_value());
  EXPECT_GT(*pings, 0u);
  const std::optional<u64> forwarded = metrics.TryGet("hub.forwarded");
  ASSERT_TRUE(forwarded.has_value());
  EXPECT_GT(*forwarded, 0u);
  const std::string prom = metrics.PrometheusText();
  EXPECT_NE(prom.find("swim_h0_pings_sent"), std::string::npos) << prom;
  EXPECT_NE(prom.find("swim_h1_gossip_fanout"), std::string::npos) << prom;
}

// --- Detection bound ---------------------------------------------------------

TEST(Swim, DetectionBoundFormulaAndMonotonicity) {
  SwimConfig config;  // defaults: 1 ms period, 3 suspicion periods, 600 us
  const Picoseconds bound8 = SwimDetectionBound(config, 8);
  const Picoseconds expect8 = static_cast<Picoseconds>(2 * 8 + 3 + 4) *
                                  config.protocol_period +
                              config.indirect_timeout;
  EXPECT_EQ(bound8, expect8);
  EXPECT_LT(SwimDetectionBound(config, 4), SwimDetectionBound(config, 16));
}

}  // namespace
}  // namespace emu
