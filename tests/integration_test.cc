// Cross-module integration scenarios: directed services inside the network
// simulator, filters in front of switches under load, NAT round trips
// between simulated hosts, and the same service checked bit-for-bit across
// all three targets.
#include <gtest/gtest.h>

#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/hostnet/host_services.h"
#include "src/net/dns.h"
#include "src/net/icmp.h"
#include "src/net/udp.h"
#include "src/services/dns_service.h"
#include "src/services/icmp_echo_service.h"
#include "src/services/iptables_cli.h"
#include "src/services/l3l4_filter.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/loadgen.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

const MacAddress kClientMac = MacAddress::FromU48(0x02'00'00'00'cc'77);
const Ipv4Address kClientIp(10, 0, 0, 9);

// --- Same service, three targets, identical wire bytes ----------------------------

TEST(CrossTarget, DnsReplyBytesIdenticalOnCpuAndFpga) {
  DnsServiceConfig config;
  const auto make_query = [&] {
    return MakeUdpPacket({config.mac, kClientMac, kClientIp, config.ip, 5555, kDnsPort},
                         BuildDnsQuery(0x77, "svc.lab"));
  };

  DnsService cpu_service(config);
  ASSERT_TRUE(cpu_service.AddRecord("svc.lab", Ipv4Address(10, 1, 1, 1)).ok());
  CpuTarget cpu(cpu_service);
  Packet cpu_query = make_query();
  cpu_query.set_src_port(1);
  const auto cpu_out = cpu.Deliver(std::move(cpu_query));
  ASSERT_EQ(cpu_out.size(), 1u);

  DnsService fpga_service(config);
  ASSERT_TRUE(fpga_service.AddRecord("svc.lab", Ipv4Address(10, 1, 1, 1)).ok());
  FpgaTarget fpga(fpga_service);
  auto fpga_out = fpga.SendAndCollect(1, make_query());
  ASSERT_TRUE(fpga_out.ok());

  ASSERT_EQ(cpu_out[0].size(), fpga_out->size());
  for (usize i = 0; i < cpu_out[0].size(); ++i) {
    ASSERT_EQ(cpu_out[0][i], (*fpga_out)[i]) << "byte " << i;
  }
}

TEST(CrossTarget, IcmpEchoAgreesWithHostImplementation) {
  // The Emu service and the host-software service implement the same
  // protocol; given the same request they must produce byte-identical
  // replies (modulo nothing: both recompute the same checksums).
  IcmpEchoConfig config;
  Packet request = MakeIcmpEchoRequest(
      {config.mac, kClientMac, kClientIp, config.ip, 7, 9}, std::vector<u8>{1, 2, 3, 4});

  IcmpEchoService emu_service(config);
  FpgaTarget target(emu_service);
  auto emu_reply = target.SendAndCollect(0, request);
  ASSERT_TRUE(emu_reply.ok());

  HostIcmpEcho host_service(config.mac, config.ip);
  auto host_reply = host_service.HandleRequest(request);
  ASSERT_TRUE(host_reply.has_value());

  ASSERT_EQ(emu_reply->size(), host_reply->size());
  for (usize i = 0; i < emu_reply->size(); ++i) {
    ASSERT_EQ((*emu_reply)[i], (*host_reply)[i]) << "byte " << i;
  }
}

// --- Directed service inside the event-driven simulator ----------------------------

TEST(DirectedInSimulator, DirectionPacketsWorkOverSimLinks) {
  DnsServiceConfig config;
  DnsService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  ASSERT_TRUE(service.AddRecord("svc.lab", Ipv4Address(10, 1, 1, 1)).ok());
  DirectedService directed(service, controller);

  std::vector<HostSpec> hosts = {
      {"client", kClientMac, kClientIp},
      {"director", MacAddress::FromU48(0x02'00'00'00'd0'02), Ipv4Address(10, 0, 0, 50)}};
  TopologyBuilder topo;
  topo.BuildStar(directed, hosts);

  // Client resolves a name through the simulator.
  bool resolved = false;
  topo.host(0).SetApp([&](SimHost&, Packet frame) {
    Ipv4View ip(frame);
    if (ip.Valid()) {
      UdpView udp(frame, ip.payload_offset());
      auto response = ParseDnsResponse(udp.Payload());
      resolved = response.ok() && !response->answers.empty();
    }
  });
  topo.host(0).Send(MakeUdpPacket({config.mac, kClientMac, kClientIp, config.ip, 5, kDnsPort},
                                  BuildDnsQuery(1, "svc.lab")));
  topo.Run();
  EXPECT_TRUE(resolved);

  // Director interrogates the service over the same network.
  std::string reply_text;
  topo.host(1).SetApp([&](SimHost&, Packet frame) {
    auto payload = ParseDirectionPacket(frame);
    if (payload.ok()) {
      reply_text = payload->text;
    }
  });
  topo.host(1).Send(MakeDirectionPacket(config.mac, hosts[1].mac,
                                        DirectionPacketKind::kCommand, 1, "print resolved"));
  topo.Run();
  EXPECT_EQ(reply_text, "resolved=1");
}

// --- Filter + switch under load ------------------------------------------------------

TEST(FilterUnderLoad, DropsDoNotDisturbAcceptedTraffic) {
  auto ruleset = ParseIptablesScript("-A FORWARD -p udp --dport 9999 -j DROP\n");
  ASSERT_TRUE(ruleset.ok());
  L3L4FilterConfig config;
  config.rules = ruleset->rules;
  L3L4Filter service(config);
  FpgaTarget target(service);

  const MacAddress macs[2] = {MacAddress::FromU48(0x02'00'00'00'00'01),
                              MacAddress::FromU48(0x02'00'00'00'00'02)};
  // Teach both MACs.
  target.Inject(0, MakeUdpPacket({MacAddress::Broadcast(), macs[0], kClientIp,
                                  Ipv4Address(10, 0, 0, 2), 1, 2},
                                 std::vector<u8>{1}));
  target.Inject(1, MakeUdpPacket({MacAddress::Broadcast(), macs[1], Ipv4Address(10, 0, 0, 2),
                                  kClientIp, 1, 2},
                                 std::vector<u8>{1}));
  target.Run(100'000);
  target.TakeEgress();

  // Interleave accepted (port 53) and filtered (port 9999) flows.
  const usize pairs = 100;
  for (usize i = 0; i < pairs; ++i) {
    target.Inject(0, MakeUdpPacket({macs[1], macs[0], kClientIp, Ipv4Address(10, 0, 0, 2),
                                    1000, 53},
                                   std::vector<u8>{1}));
    target.Inject(0, MakeUdpPacket({macs[1], macs[0], kClientIp, Ipv4Address(10, 0, 0, 2),
                                    1000, 9999},
                                   std::vector<u8>{1}));
  }
  ASSERT_TRUE(target.RunUntilEgressCount(pairs, 5'000'000));
  target.Run(100'000);
  const auto egress = target.TakeEgress();
  EXPECT_EQ(egress.size(), pairs);  // exactly the accepted half
  EXPECT_EQ(service.filtered(), pairs);
  for (const auto& frame : egress) {
    Packet copy = frame.frame;
    Ipv4View ip(copy);
    UdpView udp(copy, ip.payload_offset());
    EXPECT_EQ(udp.destination_port(), 53);
  }
}

// --- NAT between simulated hosts: full round trip -------------------------------------

TEST(NatRoundTrip, SimHostsExchangeThroughGateway) {
  NatConfig config;
  std::vector<HostSpec> hosts = {
      {"remote", MacAddress::FromU48(0x02'ff'ff'ff'ff'02), Ipv4Address(8, 8, 8, 8)},
      {"internal", MacAddress::FromU48(0x02'00'00'00'11'10), Ipv4Address(192, 168, 1, 10)}};
  NatService service(config);
  TopologyBuilder topo;
  topo.BuildStar(service, hosts);

  // The remote host echoes any UDP payload it receives back to the sender.
  topo.host(0).SetApp([&](SimHost& self, Packet frame) {
    Ipv4View ip(frame);
    if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
      return;
    }
    UdpView udp(frame, ip.payload_offset());
    const auto payload = udp.Payload();
    EthernetView eth(frame);
    Packet reply = MakeUdpPacket({eth.source(), hosts[0].mac, Ipv4Address(8, 8, 8, 8),
                                  ip.source(), udp.destination_port(), udp.source_port()},
                                 std::vector<u8>(payload.begin(), payload.end()));
    self.Send(std::move(reply));
  });

  std::string received;
  topo.host(1).SetApp([&](SimHost&, Packet frame) {
    Ipv4View ip(frame);
    if (ip.Valid() && ip.ProtocolIs(IpProtocol::kUdp)) {
      UdpView udp(frame, ip.payload_offset());
      const auto payload = udp.Payload();
      received.assign(payload.begin(), payload.end());
    }
  });

  const std::string message = "hello-through-nat";
  topo.host(1).Send(MakeUdpPacket(
      {config.internal_mac, hosts[1].mac, hosts[1].ip, hosts[0].ip, 4000, 7},
      std::vector<u8>(message.begin(), message.end())));
  topo.Run();
  EXPECT_EQ(received, message);  // outbound SNAT + inbound DNAT both worked
  EXPECT_EQ(service.translated_out(), 1u);
  EXPECT_EQ(service.translated_in(), 1u);
}

// --- Memcached multi-core under sustained load ------------------------------------------

TEST(MemcachedLoad, MultiCoreServesMixWithoutLossAtModerateRate) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 64;
  MemaslapLoadgen loadgen(workload);
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    ASSERT_TRUE(target.SendAndCollect(0, loadgen.PrewarmFrame(i)).ok());
  }
  target.TakeEgress();

  OsntLoadgen::FixedRateConfig rate;
  rate.offered_mqps = 3.0;  // well under the 4-core capacity
  rate.frames = 2000;
  rate.ports = {0, 1, 2, 3};
  const auto factory = [&loadgen](usize i, u8) { return loadgen.WorkloadFrame(i); };
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);
  EXPECT_EQ(report.injected, 2000u);
  EXPECT_LT(report.loss_rate, 0.001);
  EXPECT_EQ(report.egressed, 2000u);  // every request answered exactly once
}

// --- Directed memcached keeps serving while counting -------------------------------------

TEST(DirectedUnderLoad, CountersMatchServedRequests) {
  MemcachedConfig config;
  MemcachedService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  DirectedService directed(service, controller);
  FpgaTarget target(directed);

  controller.HandleCommandText("count calls handle_request");

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 32;
  MemaslapLoadgen loadgen(workload);
  usize served = 0;
  for (usize i = 0; i < 50; ++i) {
    Packet frame = i < 32 ? loadgen.PrewarmFrame(i) : loadgen.WorkloadFrame(i);
    if (target.SendAndCollect(0, std::move(frame)).ok()) {
      ++served;
    }
  }
  EXPECT_EQ(served, 50u);
  EXPECT_EQ(controller.machine().counter(CallCounterName("handle_request")), 50u);
}

}  // namespace
}  // namespace emu
