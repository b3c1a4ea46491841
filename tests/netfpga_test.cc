#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/targets.h"
#include "src/net/ethernet.h"
#include "src/netfpga/axis.h"
#include "src/netfpga/dataplane.h"
#include "src/netfpga/pipeline.h"
#include "src/services/learning_switch.h"

namespace emu {
namespace {

const MacAddress kHostMac[4] = {
    MacAddress::FromU48(0x020000000001), MacAddress::FromU48(0x020000000002),
    MacAddress::FromU48(0x020000000003), MacAddress::FromU48(0x020000000004)};

Packet MakeTestFrame(MacAddress dst, MacAddress src, usize size = 64) {
  std::vector<u8> payload(size > kEthernetHeaderSize ? size - kEthernetHeaderSize : 0, 0xaa);
  Packet frame = MakeEthernetFrame(dst, src, EtherType::kIpv4, payload);
  frame.Resize(size);
  return frame;
}

// --- AXIS framing ------------------------------------------------------------

TEST(Axis, WordsForBytesRoundsUp) {
  EXPECT_EQ(WordsForBytes(64, 32), 2u);
  EXPECT_EQ(WordsForBytes(65, 32), 3u);
  EXPECT_EQ(WordsForBytes(1, 32), 1u);
  EXPECT_EQ(WordsForBytes(0, 32), 1u);
  EXPECT_EQ(WordsForBytes(64, 8), 8u);
}

TEST(Axis, PacketRoundTrips256BitBus) {
  Rng rng(5);
  for (usize size : {usize{1}, usize{31}, usize{32}, usize{33}, usize{64}, usize{1514}}) {
    Packet packet(size);
    for (usize i = 0; i < size; ++i) {
      packet[i] = static_cast<u8>(rng.NextU64());
    }
    const auto words = PacketToAxis(packet);
    EXPECT_EQ(words.size(), WordsForBytes(size, 32));
    EXPECT_TRUE(words.back().tlast);
    auto back = AxisToPacket(words);
    ASSERT_TRUE(back.ok()) << "size " << size;
    ASSERT_EQ(back->size(), size);
    for (usize i = 0; i < size; ++i) {
      ASSERT_EQ((*back)[i], packet[i]);
    }
  }
}

TEST(Axis, NarrowBusRoundTrip) {
  Packet packet(100);
  for (usize i = 0; i < 100; ++i) {
    packet[i] = static_cast<u8>(i);
  }
  const auto words = PacketToAxis(packet, 8);
  EXPECT_EQ(words.size(), 13u);
  auto back = AxisToPacket(words, 8);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 100u);
}

TEST(Axis, RejectsMissingTlast) {
  Packet packet(40);
  auto words = PacketToAxis(packet);
  words.back().tlast = false;
  EXPECT_FALSE(AxisToPacket(words).ok());
}

TEST(Axis, RejectsWordsAfterTlast) {
  Packet packet(40);
  auto words = PacketToAxis(packet);
  words.push_back(words.back());
  words.front().tlast = true;
  EXPECT_FALSE(AxisToPacket(words).ok());
}

TEST(Axis, RejectsHoleInTkeep) {
  Packet packet(10);
  auto words = PacketToAxis(packet);
  words[0].tkeep = 0b1011;  // hole at byte 2
  EXPECT_FALSE(AxisToPacket(words).ok());
}

// --- NetFpga utility API (Fig. 6) ---------------------------------------------

TEST(NetFpgaApi, GetSetFrameRoundTrip) {
  NetFpgaData dataplane;
  const std::vector<u8> src = {1, 2, 3, 4, 5};
  NetFpga::SetFrame(src, dataplane);
  std::vector<u8> dst;
  NetFpga::GetFrame(dataplane, dst);
  EXPECT_EQ(dst, src);
}

TEST(NetFpgaApi, SetOutputPortSetsOneHotMask) {
  NetFpgaData dataplane;
  NetFpga::SetOutputPort(dataplane, 2);
  EXPECT_EQ(dataplane.tdata.dst_port_mask(), 0b0100);
  EXPECT_TRUE(dataplane.output_valid);
}

// A port past the last one would name no port in the one-hot mask (the frame
// would vanish without a drop count) or, from 32 up, shift out of range; it
// stops the run in every build type.
TEST(NetFpgaApiDeathTest, SetOutputPortPastLastPortAborts) {
  NetFpgaData dataplane;
  EXPECT_DEATH(NetFpga::SetOutputPort(dataplane, kNetFpgaPortCount),
               "emu: fatal: NetFpga::SetOutputPort: port 4 out of range \\(4 ports\\)");
  EXPECT_DEATH(NetFpga::SetOutputPort(dataplane, 32),
               "emu: fatal: NetFpga::SetOutputPort: port 32 out of range");
}

TEST(NetFpgaApi, BroadcastExcludesInputPort) {
  NetFpgaData dataplane;
  dataplane.tdata.set_src_port(1);
  NetFpga::Broadcast(dataplane);
  EXPECT_EQ(dataplane.tdata.dst_port_mask(), 0b1101);
}

TEST(NetFpgaApi, SendBackToSource) {
  NetFpgaData dataplane;
  dataplane.tdata.set_src_port(3);
  NetFpga::SendBackToSource(dataplane);
  EXPECT_EQ(dataplane.tdata.dst_port_mask(), 0b1000);
}

TEST(NetFpgaApi, ReadInputPort) {
  NetFpgaData dataplane;
  dataplane.tdata.set_src_port(2);
  EXPECT_EQ(NetFpga::ReadInputPort(dataplane), 2u);
}

// --- Serialization timing ------------------------------------------------------

TEST(PortTiming, SixtyFourBytePacketAtLineRate) {
  // 64B (incl. FCS) + 20B preamble/IFG = 672 bits -> 67.2 ns -> 14.88 Mpps
  // per 10G port, i.e. 59.52 Mpps across the four ports (Table 3).
  EXPECT_EQ(SerializationPs(64), 67'200);
  Simulator sim;  // 200 MHz
  EXPECT_EQ(SerializationCycles(64, sim), 14u);  // ceil(67.2ns / 5ns)
}

TEST(PortTiming, PortEnforcesLineRateSpacing) {
  Simulator sim;
  TenGigPort port(sim, "p0", 0, 64);
  const Cycle first = port.Deliver(MakeTestFrame(kHostMac[1], kHostMac[0]), 0);
  const Cycle second = port.Deliver(MakeTestFrame(kHostMac[1], kHostMac[0]), 0);
  // Back-to-back frames are spaced by exact serialization time (67.2 ns ->
  // 13-14 fabric cycles).
  EXPECT_GE(second - first, 13u);
  EXPECT_LE(second - first, 14u);
}

// --- Learning switch on the FPGA target ----------------------------------------

TEST(LearningSwitchFpga, UnknownDestinationIsBroadcast) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.Inject(0, MakeTestFrame(kHostMac[1], kHostMac[0]));
  ASSERT_TRUE(target.RunUntilEgressCount(3, 100'000));
  target.Run(2000);  // no extra copies appear later
  const auto egress = target.egress();
  ASSERT_EQ(egress.size(), 3u);  // flooded to ports 1,2,3 but not 0
  for (const auto& frame : egress) {
    EXPECT_NE(frame.port, 0);
  }
}

TEST(LearningSwitchFpga, LearnedDestinationIsUnicast) {
  LearningSwitch service;
  FpgaTarget target(service);
  // Teach the switch where host B lives (port 1).
  target.Inject(1, MakeTestFrame(kHostMac[0], kHostMac[1]));
  ASSERT_TRUE(target.RunUntilEgressCount(3, 100'000));
  target.TakeEgress();

  // Now traffic to B goes only to port 1.
  target.Inject(0, MakeTestFrame(kHostMac[1], kHostMac[0]));
  ASSERT_TRUE(target.RunUntilEgressCount(1, 100'000));
  target.Run(2000);
  const auto egress = target.TakeEgress();
  ASSERT_EQ(egress.size(), 1u);
  EXPECT_EQ(egress[0].port, 1);
  EXPECT_GT(service.hits(), 0u);
}

TEST(LearningSwitchFpga, LearnsSourceMacs) {
  LearningSwitch service;
  FpgaTarget target(service);
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, MakeTestFrame(MacAddress::Broadcast(), kHostMac[port]));
  }
  target.Run(50'000);
  EXPECT_EQ(service.learned(), 4u);
  for (u8 port = 0; port < 4; ++port) {
    const CamLookupResult hit = service.table().Lookup(kHostMac[port].ToU48());
    ASSERT_TRUE(hit.hit) << "port " << static_cast<int>(port);
    EXPECT_EQ(hit.value, port);
  }
}

TEST(LearningSwitchFpga, StationMoveRebinds) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.Inject(0, MakeTestFrame(MacAddress::Broadcast(), kHostMac[0]));
  target.Run(20'000);
  ASSERT_EQ(service.table().Lookup(kHostMac[0].ToU48()).value, 0u);
  // Same MAC appears on port 3.
  target.Inject(3, MakeTestFrame(MacAddress::Broadcast(), kHostMac[0]));
  target.Run(20'000);
  EXPECT_EQ(service.table().Lookup(kHostMac[0].ToU48()).value, 3u);
}

TEST(LearningSwitchFpga, DoesNotLearnBroadcastSource) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.Inject(0, MakeTestFrame(kHostMac[1], MacAddress::Broadcast()));
  target.Run(20'000);
  EXPECT_EQ(service.learned(), 0u);
}

TEST(LearningSwitchFpga, CoreLatencyNearPaperValue) {
  LearningSwitch service;
  FpgaTarget target(service);
  // Warm the table so the second frame takes the unicast path.
  target.Inject(1, MakeTestFrame(kHostMac[0], kHostMac[1]));
  target.Run(30'000);
  target.TakeEgress();

  target.Inject(0, MakeTestFrame(kHostMac[1], kHostMac[0], 64));
  ASSERT_TRUE(target.RunUntilEgressCount(1, 100'000));
  const auto egress = target.TakeEgress();
  ASSERT_EQ(egress.size(), 1u);
  const Cycle core_cycles =
      egress[0].frame.core_egress_cycle() - egress[0].frame.core_ingress_cycle();
  // Paper Table 3: Emu switch module latency 8 cycles.
  EXPECT_GE(core_cycles, 6u);
  EXPECT_LE(core_cycles, 10u);
}

TEST(LearningSwitchFpga, LogicCamVariantStillSwitches) {
  LearningSwitch service(LearningSwitchConfig{CamKind::kLogic, 64, 32});
  FpgaTarget target(service);
  target.Inject(1, MakeTestFrame(kHostMac[0], kHostMac[1]));
  target.Run(30'000);
  target.TakeEgress();
  target.Inject(0, MakeTestFrame(kHostMac[1], kHostMac[0]));
  ASSERT_TRUE(target.RunUntilEgressCount(1, 100'000));
  EXPECT_EQ(target.egress()[0].port, 1);
}

TEST(LearningSwitchFpga, TableWrapsWhenFull) {
  LearningSwitch service(LearningSwitchConfig{CamKind::kIpBlock, 4, 32});
  FpgaTarget target(service);
  for (u64 i = 0; i < 6; ++i) {
    target.Inject(static_cast<u8>(i % 4),
                  MakeTestFrame(MacAddress::Broadcast(), MacAddress::FromU48(0x100 + i)));
    target.Run(5'000);
  }
  EXPECT_EQ(service.learned(), 6u);  // wrapped: oldest entries overwritten
  EXPECT_TRUE(service.table().Lookup(0x105).hit);
  EXPECT_FALSE(service.table().Lookup(0x100).hit);  // evicted by wrap
}

// --- Resource accounting ---------------------------------------------------------

TEST(LearningSwitchResources, NearPaperTable3) {
  LearningSwitch service;
  FpgaTarget target(service);
  const ResourceUsage core = target.pipeline().CoreResources();
  // Paper: Emu switch logic 3509 (85% CAM), memory 118.
  EXPECT_NEAR(static_cast<double>(core.luts), 3509.0, 350.0);
  const double cam_share =
      static_cast<double>(CamIpResources(256, 48, 8).luts) / static_cast<double>(core.luts);
  EXPECT_GT(cam_share, 0.75);
  EXPECT_LT(cam_share, 0.95);
}

TEST(LearningSwitchResources, LogicCamCostsMoreLuts) {
  LearningSwitch ip_switch(LearningSwitchConfig{CamKind::kIpBlock, 256, 32});
  LearningSwitch logic_switch(LearningSwitchConfig{CamKind::kLogic, 256, 32});
  FpgaTarget ip_target(ip_switch);
  FpgaTarget logic_target(logic_switch);
  EXPECT_GT(logic_target.pipeline().CoreResources().luts,
            ip_target.pipeline().CoreResources().luts);
}

// --- CPU target: same service source, software semantics --------------------------

TEST(LearningSwitchCpu, BroadcastsUnknownDestination) {
  LearningSwitch service;
  CpuTarget target(service);
  Packet frame = MakeTestFrame(kHostMac[1], kHostMac[0]);
  frame.set_src_port(0);
  const auto out = target.Deliver(std::move(frame));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst_port_mask(), 0b1110);  // flood mask, fanned out by the OS layer
}

TEST(LearningSwitchCpu, LearnsAcrossDeliveries) {
  LearningSwitch service;
  CpuTarget target(service);
  Packet teach = MakeTestFrame(kHostMac[0], kHostMac[1]);
  teach.set_src_port(1);
  target.Deliver(std::move(teach));

  Packet query = MakeTestFrame(kHostMac[1], kHostMac[0]);
  query.set_src_port(0);
  const auto out = target.Deliver(std::move(query));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst_port_mask(), 0b0010);  // unicast to port 1
}

// --- Throughput sanity at line rate ------------------------------------------------

TEST(LearningSwitchFpga, SustainsBackToBack64BytePackets) {
  LearningSwitch service;
  FpgaTarget target(service);
  // Teach MACs first so everything unicasts.
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, MakeTestFrame(MacAddress::Broadcast(), kHostMac[port]));
  }
  target.Run(50'000);
  target.TakeEgress();

  // 200 frames per port at line rate, all to learned unicast destinations.
  const usize frames_per_port = 200;
  for (usize i = 0; i < frames_per_port; ++i) {
    for (u8 port = 0; port < 4; ++port) {
      target.Inject(port, MakeTestFrame(kHostMac[(port + 1) % 4], kHostMac[port], 64));
    }
  }
  ASSERT_TRUE(target.RunUntilEgressCount(4 * frames_per_port, 2'000'000));
  EXPECT_EQ(target.pipeline().rx_drops(), 0u);  // line rate sustained, no loss
  EXPECT_EQ(target.pipeline().tx_drops(), 0u);
}

// Sum of the port*_rx resumes and of the frames the four ports took in.
struct IngressCounts {
  u64 resumes = 0;
  u64 frames = 0;
};

IngressCounts CountIngress(FpgaTarget& target) {
  IngressCounts counts;
  for (const ProcessProfile& process : target.sim().ProfileReport().processes) {
    if (process.name.starts_with("port") && process.name.ends_with("_rx")) {
      counts.resumes += process.resumes;
    }
  }
  for (u8 port = 0; port < 4; ++port) {
    counts.frames += target.pipeline().port(port).rx_frames();
  }
  return counts;
}

// The 4-port line-rate pattern: while frames stream back to back, each one
// costs its ingress process a single resume, on the edge it lands.
TEST(LearningSwitchFpga, IngressResumesOncePerFrameAtLineRate) {
  LearningSwitch service;
  FpgaTarget target(service);
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, MakeTestFrame(MacAddress::Broadcast(), kHostMac[port]));
  }
  target.Run(50'000);
  target.TakeEgress();

  const usize frames_per_port = 300;
  for (usize i = 0; i < frames_per_port; ++i) {
    for (u8 port = 0; port < 4; ++port) {
      target.Inject(port, MakeTestFrame(kHostMac[(port + 1) % 4], kHostMac[port], 64));
    }
  }
  // Count from mid-stream, where every port is busy, to the end of the run.
  ASSERT_TRUE(target.RunUntilEgressCount(4 * 100, 2'000'000));
  const IngressCounts before = CountIngress(target);
  ASSERT_TRUE(target.RunUntilEgressCount(4 * frames_per_port, 2'000'000));
  target.Run(10'000);
  const IngressCounts after = CountIngress(target);
  EXPECT_EQ(after.frames, 4 * (frames_per_port + 1));  // every frame entered
  EXPECT_GE(after.frames - before.frames, 4u * 150);
  EXPECT_EQ(after.resumes - before.resumes, after.frames - before.frames);
  EXPECT_EQ(target.pipeline().rx_drops(), 0u);
}

}  // namespace
}  // namespace emu
