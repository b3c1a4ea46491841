// Bit-exactness of the parallel sharded runner (emu-par).
//
// The contract under test (src/sim/parallel_runner.h): Run(threads=N) is
// bit-exact against Run(threads=1) — same per-host frame arrival digests,
// same counters, same service metrics, same fault logs, same event and
// epoch totals — for every topology shape the runner supports. Each
// scenario below runs the identical workload at threads 1/2/4/8 on fresh
// topologies and compares full digests, the same bar kernel_equiv_test.cc
// sets for the quiescence fast path. The threads a queued run starts and
// joins, its queue of independent link components and the calling-thread
// path of a lone busy component are tested here too, so the TSan job's
// ParallelEquivalence.* and TraceDeterminism.* filters cover them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/obs/pulse.h"
#include "src/obs/trace.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

// Per-host arrival log: folds (arrival time, frame bytes) in arrival order.
struct HostLog {
  u64 digest = fnv::kOffset;
  u64 count = 0;

  void Note(Picoseconds at, const Packet& frame) {
    digest = fnv::Bytes(fnv::U64(digest, static_cast<u64>(at)), frame.bytes());
    ++count;
  }
};

// Everything a run can disagree on.
struct TopoDigest {
  std::vector<u64> host_digests;
  std::vector<u64> host_received;
  std::vector<u64> host_sent;
  std::vector<u64> node_forwarded;
  u64 metrics_digest = fnv::kOffset;
  u64 faults_fired = 0;
  u64 fault_digest = 0;
  u64 events = 0;
  u64 epochs = 0;
};

void FoldMetrics(u64& h, const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.Snapshot()) {
    h = fnv::Bytes(h, std::span<const u8>(reinterpret_cast<const u8*>(name.data()), name.size()));
    h = fnv::U64(h, value);
  }
}

void ExpectIdentical(const TopoDigest& serial, const TopoDigest& parallel, usize threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(parallel.host_digests, serial.host_digests);
  EXPECT_EQ(parallel.host_received, serial.host_received);
  EXPECT_EQ(parallel.host_sent, serial.host_sent);
  EXPECT_EQ(parallel.node_forwarded, serial.node_forwarded);
  EXPECT_EQ(parallel.metrics_digest, serial.metrics_digest);
  EXPECT_EQ(parallel.faults_fired, serial.faults_fired);
  EXPECT_EQ(parallel.fault_digest, serial.fault_digest);
  EXPECT_EQ(parallel.events, serial.events);
  EXPECT_EQ(parallel.epochs, serial.epochs);
}

// OS threads of this process (each ctest case is its own process).
long TaskCount() {
  long count = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

void CaptureHosts(TopologyBuilder& topo, std::vector<HostLog>& logs, TopoDigest& d) {
  for (usize i = 0; i < topo.host_count(); ++i) {
    d.host_digests.push_back(logs[i].digest);
    d.host_received.push_back(topo.host(i).received());
    d.host_sent.push_back(topo.host(i).sent());
  }
  for (usize i = 0; i < topo.node_count(); ++i) {
    d.node_forwarded.push_back(topo.node(i).forwarded());
  }
}

// --- Scenario 1: learning switch, 4-host star ---------------------------------------

std::vector<HostSpec> FourHosts() {
  return {{"h0", MacAddress::FromU48(0x020000000001), Ipv4Address(10, 0, 0, 1)},
          {"h1", MacAddress::FromU48(0x020000000002), Ipv4Address(10, 0, 0, 2)},
          {"h2", MacAddress::FromU48(0x020000000003), Ipv4Address(10, 0, 0, 3)},
          {"h3", MacAddress::FromU48(0x020000000004), Ipv4Address(10, 0, 0, 4)}};
}

TopoDigest RunShardedSwitch(usize threads) {
  LearningSwitch service;
  const std::vector<HostSpec> specs = FourHosts();
  TopologyBuilder topo;
  topo.BuildStar(service, specs);

  std::vector<HostLog> logs(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }

  // Teach the switch every MAC: one broadcast per host, staggered.
  for (usize i = 0; i < specs.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
    topo.host(i).scheduler().At(at, [&topo, i] {
      topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                          EtherType::kIpv4,
                                          std::vector<u8>{static_cast<u8>(i)}));
    });
  }
  // Unicast rounds: every host talks to a rotating peer.
  for (usize round = 0; round < 6; ++round) {
    for (usize i = 0; i < specs.size(); ++i) {
      const usize dst = (i + 1 + round % 3) % specs.size();
      const Picoseconds at = 100 * kPicosPerMicro +
                             static_cast<Picoseconds>(round) * 50 * kPicosPerMicro +
                             static_cast<Picoseconds>(i) * 2 * kPicosPerMicro;
      Packet frame = MakeUdpPacket(
          {specs[dst].mac, specs[i].mac, specs[i].ip, specs[dst].ip,
           static_cast<u16>(5000 + i), static_cast<u16>(6000 + dst)},
          std::vector<u8>{static_cast<u8>(round), static_cast<u8>(i)});
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  TopoDigest d;
  d.events = topo.Run({.threads = threads});
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  FoldMetrics(d.metrics_digest, metrics);
  return d;
}

TEST(ParallelEquivalence, ShardedSwitchBitExactAcrossThreadCounts) {
  const TopoDigest serial = RunShardedSwitch(1);
  // Teach broadcasts flood to 3 peers each; 24 unicasts arrive once each.
  // The floods are the node's multicast Emit: one frame copied to two
  // ports and moved into the third, counted once per port.
  ASSERT_EQ(serial.host_received,
            (std::vector<u64>{9, 9, 9, 9}));
  EXPECT_EQ(serial.node_forwarded, (std::vector<u64>{4 * 3 + 24}));
  EXPECT_GT(serial.epochs, 1u);
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedSwitch(threads), threads);
  }
}

// --- Scenario 2: NAT ping-pong (long cross-shard causal chains) ---------------------

// The NAT's fault registry seed, the plan armed on it (none when empty), and
// the length of the ping chain.
struct NatFaults {
  u64 seed = 7;
  std::string plan;
  usize pings = 8;
};

// The external host echoes every UDP frame back at the translated source, and
// the internal host fires the next ping only when the previous reply lands —
// every frame in the run is causally downstream of a cross-shard delivery,
// so a single horizon miscalculation would reorder or drop the whole chain.
TopoDigest RunShardedNat(usize threads, const NatFaults& faults = {}) {
  NatConfig config;
  NatService service(config);
  const std::vector<HostSpec> specs = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  TopologyBuilder topo;
  topo.BuildStar(service, specs);

  FaultRegistry registry(faults.seed);
  if (!faults.plan.empty()) {
    service.RegisterFaultPoints(registry);
    topo.node(0).target().sim().AttachFaultRegistry(&registry);
    const Expected<FaultPlan> plan = ParseFaultPlan(faults.plan);
    EXPECT_TRUE(plan.ok());
    registry.ArmPlan(*plan);
  }

  std::vector<HostLog> logs(specs.size());
  const usize pings = faults.pings;

  topo.host(0).SetApp([&logs, &topo, &config](SimHost& h, Packet frame) {
    logs[0].Note(h.scheduler().now(), frame);
    Ipv4View ip(frame);
    if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
      return;
    }
    UdpView udp(frame, ip.payload_offset());
    Packet reply = MakeUdpPacket({config.external_mac, h.mac(), h.ip(), ip.source(),
                                  udp.destination_port(), udp.source_port()},
                                 std::vector<u8>{'r'});
    h.scheduler().After(3 * kPicosPerMicro, [&topo, reply] { topo.host(0).Send(reply); });
  });

  auto pings_sent = std::make_shared<usize>(1);
  topo.host(1).SetApp([&logs, &topo, &config, &specs, pings_sent, pings](SimHost& h,
                                                                         Packet frame) {
    logs[1].Note(h.scheduler().now(), frame);
    if (*pings_sent >= pings) {
      return;
    }
    const usize i = (*pings_sent)++;
    Packet next = MakeUdpPacket({config.internal_mac, specs[1].mac, specs[1].ip, specs[0].ip,
                                 static_cast<u16>(4000 + i), 53},
                                std::vector<u8>{static_cast<u8>('a' + i)});
    h.scheduler().After(5 * kPicosPerMicro, [&topo, next] { topo.host(1).Send(next); });
  });

  topo.host(1).scheduler().At(10 * kPicosPerMicro, [&topo, &config, &specs] {
    topo.host(1).Send(MakeUdpPacket(
        {config.internal_mac, specs[1].mac, specs[1].ip, specs[0].ip, 4000, 53},
        std::vector<u8>{'a'}));
  });

  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  TopoDigest d;
  d.events = topo.Run({.threads = threads});
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  FoldMetrics(d.metrics_digest, metrics);
  d.faults_fired = registry.fired_total();
  d.fault_digest = registry.LogDigest();
  return d;
}

TEST(ParallelEquivalence, ShardedNatPingPongBitExact) {
  const TopoDigest serial = RunShardedNat(1);
  // The full request/reply chain must actually run: 8 translated pings out,
  // 8 translated-back replies in.
  ASSERT_EQ(serial.host_received, (std::vector<u64>{8, 8}));
  EXPECT_GT(serial.epochs, 8u);  // each hop crosses at least one barrier
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedNat(threads), threads);
  }
}

// A fixed plan at seed 7 (an armed registry that fires nothing on the
// 8-ping chain), plus three seeds whose table-exhaustion bursts slide with
// the seed over a 16-ping chain. Those three must actually fire, or the
// comparison would only cover the unfaulted path.
TEST(ParallelEquivalence, ShardedNatWithArmedFaultPlanBitExact) {
  const auto expect_bit_exact = [](const NatFaults& faults) {
    SCOPED_TRACE("seed=" + std::to_string(faults.seed));
    const TopoDigest serial = RunShardedNat(1, faults);
    EXPECT_GE(serial.host_received[0], 1u);  // at least the first ping got out
    for (usize threads : {2u, 4u, 8u}) {
      ExpectIdentical(serial, RunShardedNat(threads, faults), threads);
    }
    return serial;
  };
  expect_bit_exact({7, "nat.table_full burst 2000 4000 0.5; nat.flows bernoulli 0.00005", 8});
  for (u64 seed = 1; seed <= 3; ++seed) {
    const TopoDigest serial = expect_bit_exact(
        {seed,
         "nat.table_full burst " + std::to_string(2000 + 700 * seed) + " " +
             std::to_string(6000 + 700 * seed) + " 0.5; nat.flows bernoulli 0.0001",
         16});
    EXPECT_GE(serial.faults_fired, 1u) << "seed " << seed;
  }
}

// --- Scenario 3: memcached cluster (one service node per host) ----------------------

// `nodes` node/client pairs in the cluster shape. `drive` runs the built
// topology and returns the events it executed; each client sends `workload`
// requests after its prewarm.
TopoDigest RunShardedMemcachedCluster(const std::function<u64(TopologyBuilder&)>& drive,
                                      usize workload = 24, usize nodes = 4) {
  constexpr usize kKeySpace = 24;

  std::vector<std::unique_ptr<MemcachedService>> services;
  std::vector<Service*> service_ptrs;
  std::vector<HostSpec> specs;
  std::vector<MemcachedConfig> configs;
  for (usize i = 0; i < nodes; ++i) {
    MemcachedConfig config;
    config.mac = MacAddress::FromU48(0x02'00'00'00'ee'00ULL + i);
    config.ip = Ipv4Address(10, 0, 0, static_cast<u8>(200 + i));
    configs.push_back(config);
    services.push_back(std::make_unique<MemcachedService>(config));
    service_ptrs.push_back(services.back().get());
    specs.push_back({"c" + std::to_string(i),
                     MacAddress::FromU48(0x02'00'00'00'c1'00ULL + i),
                     Ipv4Address(10, 0, 0, static_cast<u8>(50 + i))});
  }
  TopologyBuilder topo;
  topo.BuildCluster(service_ptrs, specs);

  std::vector<HostLog> logs(nodes);
  for (usize i = 0; i < nodes; ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }

  // Each client prewarms then runs its own seeded 90/10 memaslap stream
  // against its own server node.
  for (usize i = 0; i < nodes; ++i) {
    MemaslapConfig mc;
    mc.server_mac = configs[i].mac;
    mc.server_ip = configs[i].ip;
    mc.client_mac = specs[i].mac;
    mc.client_ip = specs[i].ip;
    mc.key_space = kKeySpace;
    mc.seed = 1000 + 17 * i;
    MemaslapLoadgen loadgen(mc);
    for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
      const Picoseconds at = 5 * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * 2 * kPicosPerMicro;
      Packet frame = loadgen.PrewarmFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
    for (usize k = 0; k < workload; ++k) {
      const Picoseconds at = 200 * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * 3 * kPicosPerMicro +
                             static_cast<Picoseconds>(i) * kPicosPerMicro;
      Packet frame = loadgen.WorkloadFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  TopoDigest d;
  d.events = drive(topo);
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  for (usize i = 0; i < nodes; ++i) {
    MetricsRegistry metrics;
    services[i]->RegisterMetrics(metrics);
    FoldMetrics(d.metrics_digest, metrics);
  }
  return d;
}

TopoDigest RunShardedMemcachedCluster(usize threads, usize workload = 24) {
  return RunShardedMemcachedCluster(
      [threads](TopologyBuilder& topo) { return topo.Run({.threads = threads}); }, workload);
}

// Enough requests for several 5,000-event chunks.
constexpr usize kLongWorkload = 1'500;

TEST(ParallelEquivalence, ShardedMemcachedClusterBitExact) {
  const TopoDigest serial = RunShardedMemcachedCluster(1);
  // Every prewarm SET and every workload request gets a reply.
  ASSERT_EQ(serial.host_received, (std::vector<u64>{48, 48, 48, 48}));
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedMemcachedCluster(threads), threads);
  }
}

// Chunked runs reproduce one run — digests, events and epochs, since a
// component never cuts an epoch short at its share of the budget — and
// every call joins the threads it started. A budget of 1 gives each of the
// four components one epoch per call.
TEST(ParallelEquivalence, ChunkedRunsMatchOneRun) {
  const TopoDigest serial = RunShardedMemcachedCluster(1, kLongWorkload);
  ASSERT_GT(serial.events, 3 * 5'000u);  // several chunks
  for (usize budget : {5'000u, 997u, 1u}) {
    for (usize threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      long extra_threads = 0;
      const TopoDigest chunked = RunShardedMemcachedCluster([&](TopologyBuilder& topo) {
        const long before = TaskCount();
        u64 events = 0;
        while (const u64 ran = topo.Run({.threads = threads, .max_events = budget})) {
          events += ran;
        }
        extra_threads = TaskCount() - before;
        return events;
      }, kLongWorkload);
      ExpectIdentical(serial, chunked, threads);
      EXPECT_EQ(extra_threads, 0) << "threads=" << threads;
    }
  }
}

// The cluster's four busy components share the queue at any thread count
// above 1, so every one of their epochs counts as parallel.
TEST(ParallelEquivalence, EveryMultiThreadRunExecutesParallelEpochs) {
  const TopoDigest serial = RunShardedMemcachedCluster(1);
  for (usize threads : {2u, 4u}) {
    obs::RunnerPulse pulse;
    const TopoDigest parallel = RunShardedMemcachedCluster([&](TopologyBuilder& topo) {
      topo.runner().AttachPulse(&pulse);
      return topo.Run({.threads = threads});
    });
    ExpectIdentical(serial, parallel, threads);
    EXPECT_GT(pulse.epochs(), 0u);
    EXPECT_EQ(pulse.parallel_epochs(), pulse.epochs()) << "threads=" << threads;
    EXPECT_EQ(pulse.inline_epochs(), 0u);
  }
}

// Threads live for one queued run: a Run() at any thread count leaves the
// process with the threads it found, so changing the count between chunks
// needs nothing rebuilt, and the chunks reproduce serial chunks.
TEST(ParallelEquivalence, ThreadCountChangesLeaveNoThreadBehind) {
  // One 2,000-event call per listed count, then one to quiescence at the
  // last; `left` gets each call's thread count after it minus before it.
  const auto run = [](TopologyBuilder& topo, const std::vector<usize>& schedule,
                      std::vector<long>& left) {
    const auto counted = [&](const ParallelRunOptions& opts) {
      const long before = TaskCount();
      const u64 events = topo.Run(opts);
      left.push_back(TaskCount() - before);
      return events;
    };
    u64 events = 0;
    for (usize threads : schedule) {
      events += counted({.threads = threads, .max_events = 2'000});
    }
    return events + counted({.threads = schedule.back()});
  };
  std::vector<long> left;
  const TopoDigest twin = RunShardedMemcachedCluster(
      [&](TopologyBuilder& topo) { return run(topo, {1, 1, 1, 1}, left); }, kLongWorkload);
  ASSERT_GT(twin.events, 4 * 2'000u);
  left.clear();
  obs::RunnerPulse pulse;  // attached throughout; it reports the last Run()
  const TopoDigest changed = RunShardedMemcachedCluster([&](TopologyBuilder& topo) {
    topo.runner().AttachPulse(&pulse);
    return run(topo, {4, 2, 1, 4}, left);
  }, kLongWorkload);
  ExpectIdentical(twin, changed, 4);
  EXPECT_EQ(left, std::vector<long>(5, 0));
  EXPECT_GT(pulse.epochs(), 0u);
  EXPECT_EQ(pulse.inline_epochs() + pulse.parallel_epochs(), pulse.epochs());
}

// A queued run starts one thread per busy component beyond the first, not
// one per allowed thread: a 2-node cluster (four shards, two components) at
// threads=8 runs on the calling thread and at most one more. Each client's
// scheduler samples the thread count during the run; each client writes
// only its own slot, since its component runs on one thread at a time.
TEST(ParallelEquivalence, TwoComponentRunStartsAtMostOneThread) {
  constexpr usize kNodes = 2;
  constexpr usize kSamples = 4;
  std::vector<long> peak(kNodes, -1);
  std::vector<usize> samples(kNodes, 0);
  long before = 0;
  long after = 0;
  const TopoDigest d = RunShardedMemcachedCluster([&](TopologyBuilder& topo) {
    for (usize i = 0; i < kNodes; ++i) {
      for (usize k = 0; k < kSamples; ++k) {
        topo.host(i).scheduler().At(
            (190 + 20 * static_cast<Picoseconds>(k)) * kPicosPerMicro, [&, i] {
              peak[i] = std::max(peak[i], TaskCount() - before);
              ++samples[i];
            });
      }
    }
    before = TaskCount();
    const u64 events = topo.Run({.threads = 8});
    after = TaskCount();
    return events;
  }, /*workload=*/24, kNodes);
  EXPECT_EQ(d.host_received, (std::vector<u64>{48, 48}));
  for (usize i = 0; i < kNodes; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(samples[i], kSamples);
    EXPECT_GE(peak[i], 0);
    EXPECT_LE(peak[i], 1);
  }
  EXPECT_EQ(after, before);
}

// Four node/client pairs whose uplinks all register their impairment points
// on one FaultRegistry, with a seeded plan armed on every link point: the
// four components run concurrently on a queued run and fire points of the
// same registry, whose log lock is then the only lock they share besides
// the queue's. Host digests, events, epochs and the canonical fault log
// must not depend on the thread count.
TopoDigest RunImpairedMemcachedCluster(usize threads, u64 seed) {
  FaultRegistry registry(seed);
  TopoDigest d = RunShardedMemcachedCluster([&](TopologyBuilder& topo) {
    EXPECT_EQ(topo.EnableAllUplinkImpairment(registry), 4u);
    const Expected<FaultPlan> plan = ParseFaultPlan("link.* bernoulli 0.02");
    EXPECT_TRUE(plan.ok());
    registry.ArmPlan(*plan);
    return topo.Run({.threads = threads});
  }, kLongWorkload / 5);
  d.faults_fired = registry.fired_total();
  d.fault_digest = registry.LogDigest();
  return d;
}

TEST(ParallelEquivalence, ImpairedClusterSharingOneRegistryBitExact) {
  for (u64 seed : {3u, 11u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const TopoDigest serial = RunImpairedMemcachedCluster(1, seed);
    EXPECT_GE(serial.faults_fired, 4u);  // or the comparison is vacuous
    for (usize threads : {2u, 4u}) {
      ExpectIdentical(serial, RunImpairedMemcachedCluster(threads, seed), threads);
    }
  }
}

// --- Scenario 4: uneven link components ---------------------------------------------

// Three stars of different sizes on one builder: a memcached node with two
// memaslap clients, a memcached node with one, and a NAT node between a
// pinging internal host and an echoing external one (3 + 2 + 3 shards). No
// frame crosses components, so each plans its own epochs; the budget splits
// 3:2:3 between them. A TraceSession records the run, and the exported trace
// is part of what must not depend on the thread count.
struct UnevenRun {
  TopoDigest digest;
  std::string trace;
};

UnevenRun RunUnevenComponents(usize threads, usize budget) {
  obs::TraceSession session;
  session.Install();

  std::vector<std::unique_ptr<MemcachedService>> caches;
  NatConfig nat_config;
  NatService nat_service(nat_config);
  TopologyBuilder topo;
  std::vector<HostLog> logs;
  std::vector<MemcachedConfig> cache_configs;
  for (usize n = 0; n < 2; ++n) {
    MemcachedConfig config;
    config.mac = MacAddress::FromU48(0x02'00'00'00'ee'00ULL + n);
    config.ip = Ipv4Address(10, 0, 0, static_cast<u8>(200 + n));
    cache_configs.push_back(config);
    caches.push_back(std::make_unique<MemcachedService>(config));
  }
  topo.BuildStar(*caches[0],
                 {{"a0", MacAddress::FromU48(0x02'00'00'00'c1'00ULL), Ipv4Address(10, 0, 0, 50)},
                  {"a1", MacAddress::FromU48(0x02'00'00'00'c1'01ULL), Ipv4Address(10, 0, 0, 51)}});
  topo.BuildStar(*caches[1],
                 {{"b0", MacAddress::FromU48(0x02'00'00'00'c1'10ULL), Ipv4Address(10, 0, 0, 60)}});
  topo.BuildStar(nat_service,
                 {{"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
                  {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}});
  SimHost& ext = topo.host(3);
  SimHost& internal = topo.host(4);
  logs.resize(topo.host_count());
  for (usize i = 0; i < topo.host_count(); ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }

  // Memcached clients: hosts 0 and 1 on the big node, host 2 on the small.
  for (usize i = 0; i < 3; ++i) {
    const MemcachedConfig& server = cache_configs[i < 2 ? 0 : 1];
    MemaslapConfig mc;
    mc.server_mac = server.mac;
    mc.server_ip = server.ip;
    mc.client_mac = topo.host(i).mac();
    mc.client_ip = topo.host(i).ip();
    mc.key_space = 16;
    mc.seed = 2000 + 31 * i;
    MemaslapLoadgen loadgen(mc);
    SimHost& host = topo.host(i);
    for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
      host.scheduler().At((5 + 2 * static_cast<Picoseconds>(k)) * kPicosPerMicro,
                          [&host, frame = loadgen.PrewarmFrame(k)] { host.Send(frame); });
    }
    for (usize k = 0; k < 40; ++k) {
      host.scheduler().At(
          (100 + 6 * static_cast<Picoseconds>(k) + static_cast<Picoseconds>(i)) * kPicosPerMicro,
          [&host, frame = loadgen.WorkloadFrame(k)] { host.Send(frame); });
    }
  }
  // NAT: the internal host fires 12 staggered pings; the external host
  // echoes each translated datagram.
  ext.SetApp([&logs, &nat_config](SimHost& h, Packet frame) {
    logs[3].Note(h.scheduler().now(), frame);
    Ipv4View ip(frame);
    if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
      return;
    }
    UdpView udp(frame, ip.payload_offset());
    Packet reply = MakeUdpPacket({nat_config.external_mac, h.mac(), h.ip(), ip.source(),
                                  udp.destination_port(), udp.source_port()},
                                 std::vector<u8>{'r'});
    h.scheduler().After(3 * kPicosPerMicro, [&h, reply] { h.Send(reply); });
  });
  for (usize k = 0; k < 12; ++k) {
    internal.scheduler().At(
        (30 + 25 * static_cast<Picoseconds>(k)) * kPicosPerMicro,
        [&internal, &ext, &nat_config, k] {
          internal.Send(MakeUdpPacket({nat_config.internal_mac, internal.mac(), internal.ip(),
                                       ext.ip(), static_cast<u16>(4000 + k), 53},
                                      std::vector<u8>{static_cast<u8>('a' + k)}));
        });
  }

  UnevenRun run;
  TopoDigest& d = run.digest;
  while (const u64 ran = topo.Run({.threads = threads, .max_events = budget})) {
    d.events += ran;
  }
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  for (Service* service : {static_cast<Service*>(caches[0].get()),
                           static_cast<Service*>(caches[1].get()),
                           static_cast<Service*>(&nat_service)}) {
    MetricsRegistry metrics;  // one each: the two caches register the same names
    service->RegisterMetrics(metrics);
    FoldMetrics(d.metrics_digest, metrics);
  }
  obs::TraceSession::Detach();
  run.trace = session.ExportChromeJson();
  return run;
}

TEST(ParallelEquivalence, UnevenComponentsBitExactAcrossThreadCounts) {
  const UnevenRun serial = RunUnevenComponents(1, 10'000'000);
  // Every prewarm SET and workload request is answered, every ping echoed.
  EXPECT_EQ(serial.digest.host_received, (std::vector<u64>{16 + 40, 16 + 40, 16 + 40, 12, 12}));
  for (usize threads : {2u, 3u, 4u, 8u}) {
    ExpectIdentical(serial.digest, RunUnevenComponents(threads, 10'000'000).digest, threads);
  }
  // Uneven shares of a small budget: still the same epochs.
  for (usize threads : {1u, 3u}) {
    SCOPED_TRACE("chunked");
    ExpectIdentical(serial.digest, RunUnevenComponents(threads, 997).digest, threads);
  }
}

TEST(TraceDeterminism, UnevenComponentsTraceIsThreadCountFree) {
  const std::string serial = RunUnevenComponents(1, 10'000'000).trace;
#ifdef EMU_TRACE
  // The run must actually trace flights, or the comparison is vacuous.
  EXPECT_NE(serial.find("pkt.flight"), std::string::npos);
#endif
  for (usize threads : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(RunUnevenComponents(threads, 10'000'000).trace, serial)
        << "threads=" << threads << " exported different trace bytes";
  }
}

// --- Scenario 5: raw runner, no topology sugar --------------------------------------

// Two shards joined by one Link, ping-ponging a frame 20 times. Exercises
// ParallelRunner + Link::RouteRemote directly: sender-side serialization
// clocking, per-direction seq stamps, and horizon progress on a chain where
// each shard is quiescent until the other's frame lands.
std::pair<u64, usize> RunRawPingPong(usize threads, obs::RunnerPulse* pulse = nullptr,
                                     long* extra_threads = nullptr) {
  EventScheduler a;
  EventScheduler b;
  Link link(a, 10'000'000'000ULL, 500'000);
  ParallelRunner runner;
  const usize shard_a = runner.AddShard(a);
  const usize shard_b = runner.AddShard(b);
  runner.ConnectDirection(link, /*to_b=*/true, shard_a, shard_b);
  runner.ConnectDirection(link, /*to_b=*/false, shard_b, shard_a);
  runner.AttachPulse(pulse);

  u64 digest = fnv::kOffset;
  usize volleys = 0;
  link.AttachB([&](Packet frame) {
    digest = fnv::U64(digest, static_cast<u64>(b.now()));
    frame[0] = static_cast<u8>(++volleys);
    if (volleys < 20) {
      link.SendToA(std::move(frame));
    }
  });
  link.AttachA([&](Packet frame) {
    digest = fnv::U64(digest, static_cast<u64>(a.now()));
    link.SendToB(std::move(frame));
  });

  a.At(1'000'000, [&link] { link.SendToB(Packet(64)); });
  const long before = TaskCount();
  const u64 events = runner.Run({.threads = threads});
  if (extra_threads != nullptr) {
    *extra_threads = TaskCount() - before;
  }
  for (const u64 v : {events, runner.epochs(), link.delivered()}) {
    digest = fnv::U64(digest, v);
  }
  return {digest, volleys};
}

TEST(ParallelEquivalence, RawRunnerPingPongBitExact) {
  const auto serial = RunRawPingPong(1);
  EXPECT_EQ(serial.second, 20u);
  EXPECT_EQ(RunRawPingPong(2), serial);
  EXPECT_EQ(RunRawPingPong(4), serial);
}

// A ping-pong is one link component: every epoch runs inline, and no thread
// is ever started.
TEST(ParallelEquivalence, SingleBusyShardEpochsRunInline) {
  obs::RunnerPulse pulse;
  long extra_threads = -1;
  EXPECT_EQ(RunRawPingPong(4, &pulse, &extra_threads), RunRawPingPong(1));
  EXPECT_GT(pulse.inline_epochs(), 0u);
  EXPECT_EQ(pulse.parallel_epochs(), 0u);
  EXPECT_EQ(extra_threads, 0);
}

// --- Scenario 6: one busy component, many busy shards -------------------------------

// Eight hosts around one hub: nine shards in one link component. Every round
// each host sends a unicast to a rotating peer within 700 ns of the others,
// so many epochs have several shards with work before their horizons.
TopoDigest RunHubChatter(usize threads, obs::RunnerPulse* pulse = nullptr,
                         long* extra_threads = nullptr) {
  constexpr usize kHosts = 8;
  std::vector<HostSpec> specs;
  for (usize i = 0; i < kHosts; ++i) {
    specs.push_back({"h" + std::to_string(i), MacAddress::FromU48(0x02'00'00'00'0a'00ULL + i),
                     Ipv4Address(10, 0, 1, static_cast<u8>(1 + i))});
  }
  TopologyBuilder topo;
  topo.BuildHub(specs);
  topo.runner().AttachPulse(pulse);
  std::vector<HostLog> logs(kHosts);
  for (usize i = 0; i < kHosts; ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }
  for (usize round = 0; round < 8; ++round) {
    for (usize i = 0; i < kHosts; ++i) {
      const usize dst = (i + 1 + round % (kHosts - 1)) % kHosts;
      const Picoseconds at = (20 + 40 * static_cast<Picoseconds>(round)) * kPicosPerMicro +
                             static_cast<Picoseconds>(i) * 100'000;
      Packet frame = MakeUdpPacket(
          {specs[dst].mac, specs[i].mac, specs[i].ip, specs[dst].ip,
           static_cast<u16>(5000 + i), static_cast<u16>(6000 + dst)},
          std::vector<u8>{static_cast<u8>(round), static_cast<u8>(i)});
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  TopoDigest d;
  const long before = TaskCount();
  d.events = topo.Run({.threads = threads});
  if (extra_threads != nullptr) {
    *extra_threads = TaskCount() - before;
  }
  d.epochs = topo.runner().epochs();
  for (usize i = 0; i < kHosts; ++i) {
    d.host_digests.push_back(logs[i].digest);
    d.host_received.push_back(topo.host(i).received());
    d.host_sent.push_back(topo.host(i).sent());
  }
  d.node_forwarded = {topo.hub().forwarded(), topo.hub().flooded()};
  return d;
}

// However many threads a run may use, a lone busy component runs on the
// calling thread: the hub starts no thread, and every epoch it plans runs
// inline, with the same digests, events and epochs as threads=1.
TEST(ParallelEquivalence, SingleBusyComponentStartsNoThread) {
  const TopoDigest serial = RunHubChatter(1);
  EXPECT_EQ(serial.host_sent, std::vector<u64>(8, 8));
  for (const u64 received : serial.host_received) {
    EXPECT_GE(received, 8u);  // each host is every round's peer of one sender
  }
  for (usize threads : {2u, 4u, 8u}) {
    obs::RunnerPulse pulse;
    long extra_threads = -1;
    ExpectIdentical(serial, RunHubChatter(threads, &pulse, &extra_threads), threads);
    EXPECT_EQ(extra_threads, 0) << "threads=" << threads;
    EXPECT_GT(pulse.epochs(), 0u);
    EXPECT_EQ(pulse.parallel_epochs(), 0u) << "threads=" << threads;
    EXPECT_EQ(pulse.inline_epochs(), pulse.epochs());
  }
}

// Zero lookahead admits no conservative window; the runner refuses the cut
// in every build type instead of spinning forever at horizon == next event.
TEST(ParallelRunnerDeathTest, ZeroLookaheadCutAborts) {
  EXPECT_DEATH(
      {
        EventScheduler a;
        EventScheduler b;
        Link link(a, 1'000'000'000'000'000ULL, 0);  // 10^15 bit/s, no propagation delay
        ParallelRunner runner;
        const usize shard_a = runner.AddShard(a);
        const usize shard_b = runner.AddShard(b);
        runner.ConnectDirection(link, /*to_b=*/true, shard_a, shard_b);
      },
      "emu: fatal: ParallelRunner::ConnectDirection: link 0 from shard 0 to shard 1: "
      "zero-lookahead");
}

}  // namespace
}  // namespace emu
