// Event-driven network simulator (Mininet substitute), loadgens, and stats.
#include <gtest/gtest.h>

#include "src/services/icmp_echo_service.h"
#include "src/services/learning_switch.h"
#include "src/services/nat_service.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/latency_probe.h"
#include "src/sim/link.h"
#include "src/sim/loadgen.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"
#include "src/sim/trace_dump.h"
#include "src/net/arp.h"
#include "src/net/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/udp.h"

#include <set>

namespace emu {
namespace {

// --- EventScheduler ------------------------------------------------------------

TEST(EventScheduler, RunsEventsInTimeOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  scheduler.At(300, [&] { order.push_back(3); });
  scheduler.At(100, [&] { order.push_back(1); });
  scheduler.At(200, [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 300);
}

TEST(EventScheduler, SimultaneousEventsFifo) {
  EventScheduler scheduler;
  std::vector<int> order;
  scheduler.At(100, [&] { order.push_back(1); });
  scheduler.At(100, [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventScheduler, EventsCanScheduleMoreEvents) {
  EventScheduler scheduler;
  int fired = 0;
  scheduler.At(10, [&] {
    ++fired;
    scheduler.After(5, [&] { ++fired; });
  });
  scheduler.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(scheduler.now(), 15);
}

TEST(EventScheduler, RunUntilStopsAtDeadline) {
  EventScheduler scheduler;
  int fired = 0;
  scheduler.At(10, [&] { ++fired; });
  scheduler.At(100, [&] { ++fired; });
  scheduler.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(scheduler.now(), 50);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(EventScheduler, PastEventsClampToNow) {
  EventScheduler scheduler;
  scheduler.At(100, [] {});
  scheduler.Run();
  bool fired = false;
  scheduler.At(10, [&] { fired = true; });  // in the past
  scheduler.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(scheduler.now(), 100);
}

// --- Link -----------------------------------------------------------------------

TEST(Link, DeliversWithSerializationAndPropagation) {
  EventScheduler scheduler;
  Link link(scheduler, 10'000'000'000ULL, 1000);  // 10G, 1 ns propagation
  Picoseconds arrival = 0;
  link.AttachB([&](Packet) { arrival = scheduler.now(); });
  Packet frame(64);
  link.SendToB(std::move(frame));
  scheduler.Run();
  // (64+24)*8 bits at 10G = 70.4 ns + 1 ns propagation.
  EXPECT_EQ(arrival, 70'400 + 1000);
}

TEST(Link, BackToBackFramesQueueOnBandwidth) {
  EventScheduler scheduler;
  Link link(scheduler, 10'000'000'000ULL, 0);
  std::vector<Picoseconds> arrivals;
  link.AttachB([&](Packet) { arrivals.push_back(scheduler.now()); });
  link.SendToB(Packet(64));
  link.SendToB(Packet(64));
  scheduler.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 70'400);
}

TEST(Link, DirectionsAreIndependent) {
  EventScheduler scheduler;
  Link link(scheduler, 10'000'000'000ULL, 0);
  int a_count = 0;
  int b_count = 0;
  link.AttachA([&](Packet) { ++a_count; });
  link.AttachB([&](Packet) { ++b_count; });
  link.SendToB(Packet(64));
  link.SendToA(Packet(64));
  scheduler.Run();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 1);
}

// --- Topology + SimTarget ----------------------------------------------------------

std::vector<HostSpec> TwoHosts() {
  return {{"h0", MacAddress::FromU48(0x020000000001), Ipv4Address(10, 0, 0, 1)},
          {"h1", MacAddress::FromU48(0x020000000002), Ipv4Address(10, 0, 0, 2)}};
}

TEST(SimTarget, SwitchFloodsThenUnicasts) {
  LearningSwitch service;
  TopologyBuilder topo;
  topo.BuildStar(service, TwoHosts());

  usize h1_received = 0;
  topo.host(1).SetApp([&](SimHost&, Packet) { ++h1_received; });
  usize h0_received = 0;
  topo.host(0).SetApp([&](SimHost&, Packet) { ++h0_received; });

  // h0 -> h1 (unknown: flooded, h1 gets it; h0 does not get a copy back).
  topo.host(0).Send(MakeEthernetFrame(topo.host(1).mac(), topo.host(0).mac(),
                                      EtherType::kIpv4, std::vector<u8>{1}));
  topo.Run();
  EXPECT_EQ(h1_received, 1u);
  EXPECT_EQ(h0_received, 0u);

  // h1 -> h0: now unicast thanks to learning.
  topo.host(1).Send(MakeEthernetFrame(topo.host(0).mac(), topo.host(1).mac(),
                                      EtherType::kIpv4, std::vector<u8>{2}));
  topo.Run();
  EXPECT_EQ(h0_received, 1u);
  EXPECT_EQ(h1_received, 1u);
}

// A flood is the node's multicast Emit: the frame is copied for every
// addressed port but the last, which takes the frame itself. Every port
// must still see the sent bytes, and forwarded() counts one per port.
TEST(SimTarget, FloodDeliversIntactCopiesToEveryPort) {
  LearningSwitch service;
  std::vector<HostSpec> specs = TwoHosts();
  specs.push_back({"h2", MacAddress::FromU48(0x020000000003), Ipv4Address(10, 0, 0, 3)});
  specs.push_back({"h3", MacAddress::FromU48(0x020000000004), Ipv4Address(10, 0, 0, 4)});
  TopologyBuilder topo;
  topo.BuildStar(service, specs);
  std::vector<std::vector<u8>> got(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp([&got, i](SimHost&, Packet frame) {
      got[i].assign(frame.bytes().begin(), frame.bytes().end());
    });
  }
  const Packet sent = MakeEthernetFrame(MacAddress::Broadcast(), topo.host(0).mac(),
                                        EtherType::kIpv4, std::vector<u8>{1, 2, 3, 4});
  topo.host(0).Send(sent);
  topo.Run();
  const std::vector<u8> want(sent.bytes().begin(), sent.bytes().end());
  EXPECT_TRUE(got[0].empty());
  for (usize i = 1; i < specs.size(); ++i) {
    EXPECT_EQ(got[i], want) << "host " << i;
  }
  EXPECT_EQ(topo.node().forwarded(), 3u);
}

TEST(SimTarget, IcmpEchoServiceAnswersInSimulator) {
  IcmpEchoConfig config;
  IcmpEchoService service(config);
  TopologyBuilder topo;
  topo.BuildStar(service, TwoHosts());

  bool got_reply = false;
  topo.host(0).SetApp([&](SimHost&, Packet frame) {
    Ipv4View ip(frame);
    if (ip.Valid() && ip.ProtocolIs(IpProtocol::kIcmp)) {
      IcmpView icmp(frame, ip.payload_offset());
      got_reply = icmp.TypeIs(IcmpType::kEchoReply);
    }
  });
  topo.host(0).Send(MakeIcmpEchoRequest(
      {config.mac, topo.host(0).mac(), topo.host(0).ip(), config.ip, 1, 1}, {}));
  topo.Run();
  EXPECT_TRUE(got_reply);
}

TEST(SimTarget, NatRunsInSimulatorToo) {
  // The paper's NAT test case compiles to software, Mininet, and hardware;
  // this is the Mininet leg (§4.4).
  NatConfig config;
  NatService service(config);
  std::vector<HostSpec> hosts = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  TopologyBuilder topo;
  topo.BuildStar(service, hosts);

  bool external_saw_translated = false;
  topo.host(0).SetApp([&](SimHost&, Packet frame) {
    Ipv4View ip(frame);
    external_saw_translated = ip.Valid() && ip.source() == config.external_ip;
  });
  topo.host(1).Send(MakeUdpPacket({config.internal_mac, hosts[1].mac, hosts[1].ip,
                                   hosts[0].ip, 4000, 53},
                                  std::vector<u8>{'x'}));
  topo.Run();
  EXPECT_TRUE(external_saw_translated);
}

// --- LatencyStats --------------------------------------------------------------------

TEST(LatencyStats, BasicMoments) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.Add(static_cast<Picoseconds>(i) * kPicosPerMicro);
  }
  EXPECT_NEAR(stats.MeanUs(), 50.5, 1e-9);
  EXPECT_NEAR(stats.MinUs(), 1.0, 1e-9);
  EXPECT_NEAR(stats.MaxUs(), 100.0, 1e-9);
  EXPECT_NEAR(stats.MedianUs(), 50.5, 0.6);
  EXPECT_NEAR(stats.PercentileUs(99.0), 99.0, 1.1);
}

TEST(LatencyStats, TailToAverage) {
  // 5% of requests are 10x slower: nearest-rank p99 lands inside the slow
  // tail and the ratio exposes it.
  LatencyStats stats;
  for (int i = 0; i < 95; ++i) {
    stats.Add(10 * kPicosPerMicro);
  }
  for (int i = 0; i < 5; ++i) {
    stats.Add(100 * kPicosPerMicro);
  }
  EXPECT_GT(stats.TailToAverage(), 1.0);
}

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.MeanUs(), 0.0);
  EXPECT_EQ(stats.PercentileUs(99), 0.0);
}

// Nearest-rank percentiles at the edge cases the definition is usually got
// wrong on: empty, singleton, and two-sample sets, at p = 0/50/99/100.
TEST(LatencyStats, NearestRankSmallSampleCounts) {
  LatencyStats empty;
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(empty.PercentileUs(p), 0.0) << "p=" << p;
  }

  LatencyStats one;
  one.Add(7 * kPicosPerMicro);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_NEAR(one.PercentileUs(p), 7.0, 1e-9) << "p=" << p;
  }

  LatencyStats two;
  two.Add(10 * kPicosPerMicro);
  two.Add(20 * kPicosPerMicro);
  EXPECT_NEAR(two.PercentileUs(0.0), 10.0, 1e-9);    // rank clamps to 1: the min
  EXPECT_NEAR(two.PercentileUs(50.0), 10.0, 1e-9);   // ceil(0.5 * 2) = rank 1
  EXPECT_NEAR(two.PercentileUs(99.0), 20.0, 1e-9);   // ceil(0.99 * 2) = rank 2
  EXPECT_NEAR(two.PercentileUs(100.0), 20.0, 1e-9);  // rank 2, not one past the end
}

TEST(LatencyStats, PercentileHundredIsMaxAtAnyCount) {
  LatencyStats stats;
  for (int i = 1; i <= 7; ++i) {
    stats.Add(static_cast<Picoseconds>(i) * kPicosPerMicro);
  }
  EXPECT_NEAR(stats.PercentileUs(100.0), stats.MaxUs(), 1e-9);
  EXPECT_NEAR(stats.PercentileUs(0.0), stats.MinUs(), 1e-9);
}

// Accessors must not mutate (the old lazy-sort flag was UB under the
// threaded engine): interleaving reads with writes keeps order-insensitive
// results consistent.
TEST(LatencyStats, ConstAccessorsDoNotReorderSamples) {
  LatencyStats stats;
  stats.Add(30 * kPicosPerMicro);
  stats.Add(10 * kPicosPerMicro);
  EXPECT_NEAR(stats.PercentileUs(100.0), 30.0, 1e-9);
  stats.Add(20 * kPicosPerMicro);  // appended after a percentile read
  EXPECT_NEAR(stats.MedianUs(), 20.0, 1e-9);
  EXPECT_NEAR(stats.MinUs(), 10.0, 1e-9);
  EXPECT_NEAR(stats.MaxUs(), 30.0, 1e-9);
}

// --- OsntLoadgen ---------------------------------------------------------------------

TEST(OsntLoadgen, UnloadedRttOnIcmpEcho) {
  IcmpEchoConfig config;
  IcmpEchoService service(config);
  FpgaTarget target(service);
  const MacAddress client = MacAddress::FromU48(0x02'00'00'00'cc'01);
  const auto factory = [&](usize i, u8) {
    return MakeIcmpEchoRequest(
        {config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip, static_cast<u16>(i), 0}, {});
  };
  const LatencyStats stats = OsntLoadgen::MeasureUnloadedRtt(target, factory, 50);
  ASSERT_EQ(stats.count(), 50u);
  // Table 4 Emu row: ~1.09 us with a very flat tail.
  EXPECT_GT(stats.MeanUs(), 0.5);
  EXPECT_LT(stats.MeanUs(), 2.0);
  EXPECT_LT(stats.TailToAverage(), 1.1);
}

TEST(OsntLoadgen, FixedRateReportsLoss) {
  IcmpEchoConfig config;
  IcmpEchoService service(config);
  PipelineConfig pipe;
  pipe.rx_fifo_depth = 8;
  FpgaTarget target(service, pipe);
  const MacAddress client = MacAddress::FromU48(0x02'00'00'00'cc'01);
  const auto factory = [&](usize i, u8) {
    return MakeIcmpEchoRequest(
        {config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip, static_cast<u16>(i), 0}, {});
  };
  OsntLoadgen::FixedRateConfig rate;
  rate.offered_mqps = 50.0;  // way beyond the echo service's capacity
  rate.frames = 4000;        // sustained long enough to defeat buffering
  rate.ports = {0, 1, 2, 3};
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);
  EXPECT_EQ(report.injected, 4000u);
  EXPECT_GT(report.loss_rate, 0.05);
  EXPECT_GT(report.egressed, 0u);
}

TEST(OsntLoadgen, ZeroFramesHasZeroLossAndNoDivide) {
  IcmpEchoConfig config;
  IcmpEchoService service(config);
  FpgaTarget target(service);
  const MacAddress client = MacAddress::FromU48(0x02'00'00'00'cc'01);
  const auto factory = [&](usize i, u8) {
    return MakeIcmpEchoRequest(
        {config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip, static_cast<u16>(i), 0}, {});
  };
  OsntLoadgen::FixedRateConfig rate;
  rate.frames = 0;
  rate.drain_limit = 10'000;
  // A nonzero drop counter with zero injected frames must not produce a
  // negative or divide-by-zero loss rate.
  rate.accounted_drops = [] { return u64{12}; };
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);
  EXPECT_EQ(report.injected, 0u);
  EXPECT_EQ(report.accounted_drops, 0u);  // clamped to injected
  EXPECT_EQ(report.loss_rate, 0.0);
  EXPECT_EQ(report.raw_loss_rate, 0.0);
}

TEST(OsntLoadgen, AccountedDropsClampedToInjected) {
  IcmpEchoConfig config;
  IcmpEchoService service(config);
  FpgaTarget target(service);
  const MacAddress client = MacAddress::FromU48(0x02'00'00'00'cc'01);
  const auto factory = [&](usize i, u8) {
    return MakeIcmpEchoRequest(
        {config.mac, client, Ipv4Address(10, 0, 0, 9), config.ip, static_cast<u16>(i), 0}, {});
  };
  OsntLoadgen::FixedRateConfig rate;
  rate.offered_mqps = 1.0;
  rate.frames = 20;
  // A double-booking counter claims more drops than frames ever existed; the
  // report must clamp so downstream verdicts stay inside [0, 1].
  rate.accounted_drops = [] { return u64{1'000'000}; };
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);
  EXPECT_EQ(report.injected, 20u);
  EXPECT_LE(report.accounted_drops, report.injected);
  EXPECT_GE(report.loss_rate, 0.0);
  EXPECT_LE(report.loss_rate, 1.0);
}

TEST(OsntLoadgen, RateSearchFindsCapacityOrder) {
  // A synthetic trial whose loss is zero below 2.0 Mqps and grows above it:
  // the search must land near 2.0.
  const auto trial = [](double offered) {
    LoadgenReport report;
    report.injected = 1000;
    report.offered_mqps = offered;
    if (offered <= 2.0) {
      report.egressed = 1000;
      report.achieved_mqps = offered;
    } else {
      report.egressed = static_cast<usize>(1000 * 2.0 / offered);
      report.achieved_mqps = 2.0;
    }
    report.loss_rate =
        1.0 - static_cast<double>(report.egressed) / static_cast<double>(report.injected);
    return report;
  };
  const double max = OsntLoadgen::FindMaxThroughputMqps(trial, 0.1, 10.0);
  EXPECT_NEAR(max, 2.0, 0.1);
}

// --- Memaslap ------------------------------------------------------------------------

TEST(Memaslap, MixIsNinetyTen) {
  MemaslapConfig config;
  config.server_mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
  config.server_ip = Ipv4Address(10, 0, 0, 211);
  MemaslapLoadgen loadgen(config);
  usize gets = 0;
  const usize n = 5000;
  for (usize i = 0; i < n; ++i) {
    Packet frame = loadgen.WorkloadFrame(i);
    Ipv4View ip(frame);
    UdpView udp(frame, ip.payload_offset());
    auto request = ParseMcRequest(udp.Payload(), config.protocol);
    ASSERT_TRUE(request.ok());
    if (request->op == McOpcode::kGet) {
      ++gets;
    } else {
      EXPECT_EQ(request->op, McOpcode::kSet);
      EXPECT_EQ(request->value.size(), config.value_bytes);
    }
    EXPECT_EQ(request->key.size(), config.key_bytes);
  }
  EXPECT_NEAR(static_cast<double>(gets) / n, 0.9, 0.02);
  EXPECT_NEAR(loadgen.ObservedGetFraction(), 0.9, 0.02);
}

TEST(Memaslap, PrewarmCoversKeySpace) {
  MemaslapConfig config;
  config.server_mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
  config.server_ip = Ipv4Address(10, 0, 0, 211);
  config.key_space = 50;
  MemaslapLoadgen loadgen(config);
  std::set<std::string> keys;
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    Packet frame = loadgen.PrewarmFrame(i);
    Ipv4View ip(frame);
    UdpView udp(frame, ip.payload_offset());
    auto request = ParseMcRequest(udp.Payload(), config.protocol);
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(request->op, McOpcode::kSet);
    keys.insert(request->key);
  }
  EXPECT_EQ(keys.size(), 50u);
}

// Keys are 'k' and the key number zero-padded to key_bytes, at any length up
// to the service's 250-byte limit: long-key runs draw from the whole space.
TEST(Memaslap, LongKeysAreDistinctAndFullLength) {
  for (const usize key_bytes : {32u, 40u, 250u}) {
    for (const McProtocol protocol : {McProtocol::kAscii, McProtocol::kBinary}) {
      MemaslapConfig config;
      config.server_mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
      config.server_ip = Ipv4Address(10, 0, 0, 211);
      config.protocol = protocol;
      config.key_bytes = key_bytes;
      config.key_space = 1000;
      MemaslapLoadgen loadgen(config);
      std::set<std::string> keys;
      for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
        Packet frame = loadgen.PrewarmFrame(i);
        Ipv4View ip(frame);
        UdpView udp(frame, ip.payload_offset());
        auto request = ParseMcRequest(udp.Payload(), protocol);
        ASSERT_TRUE(request.ok()) << key_bytes << "-byte key " << i;
        const std::string digits = std::to_string(i);
        EXPECT_EQ(request->key, "k" + std::string(key_bytes - 1 - digits.size(), '0') + digits);
        keys.insert(request->key);
      }
      EXPECT_EQ(keys.size(), 1000u) << key_bytes << "-byte keys";
    }
  }
}

// A key number with more digits than fit keeps its leading ones.
TEST(Memaslap, ShortKeysKeepLeadingDigits) {
  MemaslapConfig config;
  config.server_mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
  config.server_ip = Ipv4Address(10, 0, 0, 211);
  config.key_space = 2'000'000;
  config.value_bytes = 4;
  MemaslapLoadgen loadgen(config);
  Packet frame = loadgen.PrewarmFrame(1'234'567);
  Ipv4View ip(frame);
  UdpView udp(frame, ip.payload_offset());
  auto request = ParseMcRequest(udp.Payload(), config.protocol);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->key, "k12345");
  EXPECT_EQ(request->value, "1234");
}

TEST(Memaslap, DeterministicForSameSeed) {
  MemaslapConfig config;
  config.server_mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
  config.server_ip = Ipv4Address(10, 0, 0, 211);
  MemaslapLoadgen a(config);
  MemaslapLoadgen b(config);
  for (usize i = 0; i < 100; ++i) {
    const Packet fa = a.WorkloadFrame(i);
    const Packet fb = b.WorkloadFrame(i);
    ASSERT_EQ(fa.size(), fb.size());
    for (usize j = 0; j < fa.size(); ++j) {
      ASSERT_EQ(fa[j], fb[j]);
    }
  }
}

// --- TraceDump -----------------------------------------------------------------------

TEST(TraceDump, SummarizesPackets) {
  TraceDump dump;
  Packet udp = MakeUdpPacket({MacAddress::FromU48(1), MacAddress::FromU48(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 1, 2},
                             std::vector<u8>{1});
  dump.Capture(1 * kPicosPerMicro, "rx", udp);
  const std::string summary = dump.Summary();
  EXPECT_NE(summary.find("rx"), std::string::npos);
  EXPECT_NE(summary.find("10.0.0.1>10.0.0.2"), std::string::npos);
  EXPECT_NE(summary.find("proto=17"), std::string::npos);
}

TEST(TraceDump, DescribesArp) {
  const Packet arp = MakeArpRequest(MacAddress::FromU48(5), Ipv4Address(10, 0, 0, 1),
                                    Ipv4Address(10, 0, 0, 2));
  const std::string description = DescribePacket(arp);
  EXPECT_NE(description.find("ARP request"), std::string::npos);
  EXPECT_NE(description.find("asks 10.0.0.2"), std::string::npos);
}

TEST(TraceDump, FullIncludesHexdump) {
  TraceDump dump;
  dump.Capture(0, "tx", Packet(std::vector<u8>{0xde, 0xad}));
  EXPECT_NE(dump.Full().find("de ad"), std::string::npos);
}

TEST(TraceDump, WritesFile) {
  TraceDump dump;
  dump.Capture(0, "tx", Packet(4));
  EXPECT_TRUE(dump.WriteToFile("/tmp/emu_trace_test.txt"));
}

// --- Node-level chaos plumbing (emu-gossip) -----------------------------------

namespace chaos_plumbing {

constexpr MacAddress kMacA = MacAddress::FromU48(0x02'00'00'00'00'0aULL);
constexpr MacAddress kMacB = MacAddress::FromU48(0x02'00'00'00'00'0bULL);
constexpr u8 kPayload[] = {1, 2, 3, 4};

// Two hosts on one link, app on each counting deliveries.
struct Pair {
  EventScheduler sched;
  Link link{sched, 10'000'000'000ULL, 1000};
  SimHost a{sched, "a", kMacA, Ipv4Address(10, 0, 0, 1)};
  SimHost b{sched, "b", kMacB, Ipv4Address(10, 0, 0, 2)};
  u64 a_got = 0;
  u64 b_got = 0;

  Pair() {
    a.AttachUplink(&link, /*is_end_a=*/true);
    b.AttachUplink(&link, /*is_end_a=*/false);
    a.SetApp([this](SimHost&, Packet) { ++a_got; });
    b.SetApp([this](SimHost&, Packet) { ++b_got; });
  }
  Packet Frame(MacAddress dst, MacAddress src) {
    return MakeEthernetFrame(dst, src, EtherType::kIpv4, kPayload);
  }
};

TEST(SimHostLifecycle, CrashDropsTrafficBothWaysAndRestartRecovers) {
  Pair p;
  p.a.Send(p.Frame(kMacB, kMacA));
  p.sched.Run();
  EXPECT_EQ(p.b_got, 1u);

  p.b.Crash();
  EXPECT_FALSE(p.b.up());
  EXPECT_EQ(p.b.lifecycle(), HostLifecycle::kCrashed);
  p.a.Send(p.Frame(kMacB, kMacA));  // dropped on arrival at the dead host
  p.b.Send(p.Frame(kMacA, kMacB));  // swallowed at the dead sender
  p.sched.Run();
  EXPECT_EQ(p.b_got, 1u);
  EXPECT_EQ(p.a_got, 0u);
  EXPECT_EQ(p.b.lifecycle_dropped(), 2u);
  EXPECT_EQ(p.b.crashes(), 1u);

  bool restarted = false;
  p.b.SetOnRestart([&] { restarted = true; });
  // Boot window far longer than one frame's transit (~49 ns on this link),
  // so the frame sent right after Restart() arrives at a still-deaf host.
  p.b.Restart(/*boot_delay=*/1'000'000);
  EXPECT_EQ(p.b.lifecycle(), HostLifecycle::kRestarting);
  p.a.Send(p.Frame(kMacB, kMacA));  // still deaf during the boot window
  p.sched.Run();
  EXPECT_TRUE(p.b.up());
  EXPECT_TRUE(restarted);
  EXPECT_EQ(p.b.restarts(), 1u);
  EXPECT_EQ(p.b_got, 1u);

  p.a.Send(p.Frame(kMacB, kMacA));
  p.sched.Run();
  EXPECT_EQ(p.b_got, 2u);
}

TEST(SimHostLifecycle, CrashIsIdempotentAndRestartOfUpHostPowerCycles) {
  Pair p;
  p.b.Crash();
  p.b.Crash();
  EXPECT_EQ(p.b.crashes(), 1u);

  // Restarting the (up) peer a is a power-cycle: deaf during the window.
  p.a.Restart(/*boot_delay=*/1'000'000);
  EXPECT_FALSE(p.a.up());
  p.sched.Run();
  EXPECT_TRUE(p.a.up());
  EXPECT_EQ(p.a.restarts(), 1u);
}

std::vector<HostSpec> HubSpecs(usize n) {
  std::vector<HostSpec> specs;
  for (usize i = 0; i < n; ++i) {
    specs.push_back(HostSpec{"h" + std::to_string(i),
                             MacAddress::FromU48(0x02'00'00'00'c0'00ULL + i),
                             Ipv4Address(10, 0, 1, static_cast<u8>(1 + i))});
  }
  return specs;
}

TEST(HubTopologyTest, LearningSwitchFloodsUnknownThenForwardsLearned) {
  TopologyBuilder topo;
  topo.BuildHub(HubSpecs(3));
  std::vector<u64> got(3, 0);
  for (usize i = 0; i < 3; ++i) {
    topo.host(i).SetApp([&got, i](SimHost&, Packet) { ++got[i]; });
  }
  // h0 -> h1 before any learning: the hub floods to h1 AND h2.
  topo.host(0).Send(MakeEthernetFrame(topo.host(1).mac(), topo.host(0).mac(),
                                      EtherType::kIpv4, kPayload));
  topo.Run();
  EXPECT_EQ(got[1], 1u);
  EXPECT_EQ(got[2], 1u);
  EXPECT_EQ(topo.hub().flooded(), 1u);

  // h1 -> h0: the flood taught the hub h0's port, so this is a clean forward.
  const u64 flooded_before = topo.hub().flooded();
  topo.host(1).Send(MakeEthernetFrame(topo.host(0).mac(), topo.host(1).mac(),
                                      EtherType::kIpv4, kPayload));
  topo.Run();
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[2], 1u);  // not flooded again
  EXPECT_EQ(topo.hub().flooded(), flooded_before);
  EXPECT_GT(topo.hub().forwarded(), 0u);
}

TEST(HubTopologyTest, CountedBlocksComposeAcrossOverlappingWindows) {
  TopologyBuilder topo;
  HubNode& hub = topo.BuildHub(HubSpecs(2));
  // Two overlapping partition windows cover the same pair: connectivity
  // returns only after BOTH close.
  hub.SetBlocked(0, 1, true);
  hub.SetBlocked(0, 1, true);
  EXPECT_TRUE(hub.Blocked(0, 1));
  EXPECT_FALSE(hub.Blocked(1, 0));  // directional
  hub.SetBlocked(0, 1, false);
  EXPECT_TRUE(hub.Blocked(0, 1));
  hub.SetBlocked(0, 1, false);
  EXPECT_FALSE(hub.Blocked(0, 1));
}

TEST(HubTopologyTest, PartitionDropsAreCounted) {
  TopologyBuilder topo;
  topo.BuildHub(HubSpecs(2));
  u64 got1 = 0;
  topo.host(1).SetApp([&](SimHost&, Packet) { ++got1; });
  // Block h0 -> h1 on the hub's own scheduler (shard safety contract).
  topo.hub().scheduler().At(0, [&] { topo.hub().SetBlocked(0, 1, true); });
  topo.host(0).Send(MakeEthernetFrame(topo.host(1).mac(), topo.host(0).mac(),
                                      EtherType::kIpv4, kPayload));
  topo.Run();
  EXPECT_EQ(got1, 0u);
  EXPECT_EQ(topo.hub().partition_dropped(), 1u);
}

TEST(HubTopologyTest, FindHostByName) {
  TopologyBuilder topo;
  topo.BuildHub(HubSpecs(3));
  EXPECT_EQ(topo.FindHost("h0"), 0u);
  EXPECT_EQ(topo.FindHost("h2"), 2u);
  EXPECT_EQ(topo.FindHost("nope"), topo.host_count());
}

// --- Topology invariants: checked in every build type -------------------------------
//
// Each of these used to be an assert (or nothing) that vanished under NDEBUG
// and let the builder or a node write out of bounds. The runner's component
// discovery trusts the structures they protect.

TEST(TopologyDeathTest, LinkingAHostOfAnotherBuilderAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder builder;
        TopologyBuilder other;
        ServiceNode& node = builder.AddServiceNode(service);
        SimHost& stranger = other.AddHost(HubSpecs(1)[0]);
        builder.LinkHostToNode(stranger, node, 0, StarTopologyConfig{});
      },
      "emu: fatal: TopologyBuilder::HostIndex: host 'h0' not owned by this builder");
}

TEST(TopologyDeathTest, LinkingToANodeOfAnotherBuilderAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder builder;
        TopologyBuilder other;
        SimHost& host = builder.AddHost(HubSpecs(1)[0]);
        builder.LinkHostToNode(host, other.AddServiceNode(service), 0, StarTopologyConfig{});
      },
      "emu: fatal: TopologyBuilder::LinkHostToNode: node not owned by this builder");
}

TEST(TopologyDeathTest, LinkingToAHubOfAnotherBuilderAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder builder;
        TopologyBuilder other;
        builder.AddHub(2);
        SimHost& host = builder.AddHost(HubSpecs(1)[0]);
        builder.LinkHostToHub(host, other.AddHub(2), 0, StarTopologyConfig{});
      },
      "emu: fatal: TopologyBuilder::LinkHostToHub: hub not owned by this builder");
}

TEST(TopologyDeathTest, SecondHubAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder topo;
        topo.BuildHub(HubSpecs(2));
        topo.AddHub(2);
      },
      "emu: fatal: TopologyBuilder::AddHub: one hub per topology");
}

TEST(TopologyDeathTest, ServiceNodePortPastLastPortAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder builder;
        ServiceNode& node = builder.AddServiceNode(service);
        SimHost& host = builder.AddHost(HubSpecs(1)[0]);
        builder.LinkHostToNode(host, node, static_cast<u8>(kNetFpgaPortCount),
                               StarTopologyConfig{});
      },
      "emu: fatal: ServiceNode::AttachPort: port 4 out of range \\(4 ports\\)");
}

TEST(TopologyDeathTest, HubPortPastLastPortAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder builder;
        HubNode& hub = builder.AddHub(2);
        SimHost& host = builder.AddHost(HubSpecs(1)[0]);
        builder.LinkHostToHub(host, hub, 2, StarTopologyConfig{});
      },
      "emu: fatal: HubNode::AttachPort: port 2 out of range \\(2 ports\\)");
}

TEST(TopologyDeathTest, HubBlockPastLastPortAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder topo;
        topo.BuildHub(HubSpecs(2)).SetBlocked(0, 2, true);
      },
      "emu: fatal: HubNode::SetBlocked: port pair \\(0, 2\\) out of range \\(2 ports\\)");
}

TEST(TopologyDeathTest, UnbalancedHubUnblockAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder topo;
        HubNode& hub = topo.BuildHub(HubSpecs(2));
        hub.SetBlocked(0, 1, true);
        hub.SetBlocked(0, 1, false);
        hub.SetBlocked(0, 1, false);
      },
      "emu: fatal: HubNode::SetBlocked: unblock of port pair \\(0, 1\\), which is not "
      "blocked");
}

TEST(TopologyDeathTest, ClusterWithFewerServicesThanHostsAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder topo;
        topo.BuildCluster({&service}, HubSpecs(2));
      },
      "emu: fatal: TopologyBuilder::BuildCluster: 1 services for 2 hosts");
}

TEST(TopologyDeathTest, ClusterWithANullServiceAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder topo;
        topo.BuildCluster({&service, nullptr}, HubSpecs(2));
      },
      "emu: fatal: TopologyBuilder::BuildCluster: service 1 is null");
}

TEST(TopologyDeathTest, SendFromAHostWithNoUplinkAborts) {
  EXPECT_DEATH(
      {
        TopologyBuilder builder;
        builder.AddHost(HubSpecs(1)[0]).Send(Packet(64));
      },
      "emu: fatal: SimHost::Send: host 'h0' has no uplink");
}

// A star has one ServiceNode with four ports; the fifth host's link aborts
// in ServiceNode::AttachPort.
TEST(TopologyDeathTest, StarWithFiveHostsAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder topo;
        topo.BuildStar(service, HubSpecs(5));
      },
      "emu: fatal: ServiceNode::AttachPort: port 4 out of range \\(4 ports\\)");
}

// The same cap holds for a star built beside another shape, whose node is
// not the builder's first shard.
TEST(TopologyDeathTest, ShardedStarWithFiveHostsAborts) {
  EXPECT_DEATH(
      {
        LearningSwitch service;
        TopologyBuilder topo;
        topo.BuildHub(HubSpecs(2));
        topo.BuildStar(service, HubSpecs(5));
      },
      "emu: fatal: ServiceNode::AttachPort: port 4 out of range \\(4 ports\\)");
}

// --- Simulator configuration: checked in every build type ---------------------------
//
// Under NDEBUG an unchecked second impairer would silently replace the
// first, and the loadgens would divide by zero or build colliding keys.

TEST(SimConfigDeathTest, ImpairingALinkDirectionTwiceAborts) {
  EXPECT_DEATH(
      {
        EventScheduler scheduler;
        Link link(scheduler, 10'000'000'000ULL, 1000);
        FaultRegistry registry(1);
        link.EnableImpairment(/*to_b=*/true, registry, "wire.up");
        link.EnableImpairment(/*to_b=*/false, registry, "wire.down");
        link.EnableImpairment(/*to_b=*/true, registry, "wire.again");
      },
      "emu: fatal: Link::EnableImpairment: direction to_b is already impaired "
      "\\(points 'wire.again'\\)");
}

// A drained cross-shard frame for an end nothing is attached to used to call
// an empty std::function (a debug-only assert guarded it).
TEST(SimConfigDeathTest, RemoteDeliveryOnUnattachedEndAborts) {
  EXPECT_DEATH(
      {
        EventScheduler scheduler;
        Link link(scheduler, 10'000'000'000ULL, 1000);
        link.AttachA([](Packet) {});
        link.CompleteRemote(Packet(64), /*to_b=*/true);
      },
      "emu: fatal: Link::CompleteRemote: remote delivery to unattached end b");
}

TEST(SimConfigDeathTest, MemaslapKeyBytesBelowFourAborts) {
  EXPECT_DEATH(
      {
        MemaslapConfig config;
        config.key_bytes = 3;
        MemaslapLoadgen loadgen(config);
      },
      "emu: fatal: MemaslapLoadgen: key_bytes 3 is below 4");
}

TEST(SimConfigDeathTest, MemaslapEmptyKeySpaceAborts) {
  EXPECT_DEATH(
      {
        MemaslapConfig config;
        config.key_space = 0;
        MemaslapLoadgen loadgen(config);
      },
      "emu: fatal: MemaslapLoadgen: key_space is 0");
}

TEST(SimConfigDeathTest, FixedRateWithNoPortsAborts) {
  EXPECT_DEATH(
      {
        IcmpEchoService service(IcmpEchoConfig{});
        FpgaTarget target(service);
        OsntLoadgen::FixedRateConfig rate;
        rate.ports.clear();
        OsntLoadgen::RunFixedRate(target, [](usize, u8) { return Packet(64); }, rate);
      },
      "emu: fatal: OsntLoadgen::RunFixedRate: no ingress ports");
}

}  // namespace chaos_plumbing

}  // namespace
}  // namespace emu
