// Extension features beyond the paper's prototype limits: DNS over IPv6
// (AAAA, the §4.3 relaxation), NAT flow expiry, pcap round trips, and
// large-key/value Memcached.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <utility>

#include "src/core/targets.h"
#include "src/services/learning_switch.h"
#include "src/net/dns.h"
#include "src/net/udp.h"
#include "src/services/dns_service.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/trace_dump.h"

namespace emu {
namespace {

const MacAddress kClientMac = MacAddress::FromU48(0x02'00'00'00'cc'88);
const Ipv4Address kClientIp(10, 0, 0, 9);

Ipv6Address TestV6() {
  Ipv6Address address;
  const u8 bytes[16] = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x42};
  return Ipv6Address::FromBytes(bytes);
}

// --- DNS AAAA ---------------------------------------------------------------------

TEST(DnsAaaa, CodecRoundTrip) {
  const std::vector<u8> qwire = BuildDnsQuery(9, "v6.lab", kDnsTypeAaaa);
  auto query = ParseDnsQuery(qwire);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->question.qtype, kDnsTypeAaaa);
  const std::vector<u8> rwire = BuildDnsResponseAaaa(*query, TestV6(), 120);
  auto response = ParseDnsResponse(rwire);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].rtype, kDnsTypeAaaa);
  EXPECT_EQ(response->answers[0].address6, TestV6());
  EXPECT_EQ(response->answers[0].ttl, 120u);
}

TEST(DnsAaaa, Ipv6ToString) {
  EXPECT_EQ(TestV6().ToString(), "2001:0db8:0000:0000:0000:0000:0000:0042");
}

class DnsAaaaServiceTest : public ::testing::Test {
 protected:
  DnsAaaaServiceTest() {
    EXPECT_TRUE(service_.AddRecord("dual.lab", Ipv4Address(10, 1, 1, 1)).ok());
    EXPECT_TRUE(service_.AddRecordAaaa("dual.lab", TestV6()).ok());
    EXPECT_TRUE(service_.AddRecordAaaa("v6only.lab", TestV6()).ok());
  }

  Expected<DnsParsedResponse> Query(const std::string& name, u16 qtype) {
    Packet packet =
        MakeUdpPacket({config_.mac, kClientMac, kClientIp, config_.ip, 5555, kDnsPort},
                      BuildDnsQuery(1, name, qtype));
    auto reply = target_.SendAndCollect(0, std::move(packet));
    if (!reply.ok()) {
      return reply.status();
    }
    Ipv4View ip(*reply);
    UdpView udp(*reply, ip.payload_offset());
    return ParseDnsResponse(udp.Payload());
  }

  DnsServiceConfig config_;
  DnsService service_{config_};
  FpgaTarget target_{service_};
};

TEST_F(DnsAaaaServiceTest, ResolvesAaaaRecords) {
  auto response = Query("dual.lab", kDnsTypeAaaa);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].address6, TestV6());
}

TEST_F(DnsAaaaServiceTest, ARecordsStillWorkOnDualStackNames) {
  auto response = Query("dual.lab", kDnsTypeA);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].address, Ipv4Address(10, 1, 1, 1));
}

TEST_F(DnsAaaaServiceTest, V6OnlyNameNxdomainsForA) {
  auto response = Query("v6only.lab", kDnsTypeA);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->header.rcode, DnsRcode::kNxDomain);
  auto v6 = Query("v6only.lab", kDnsTypeAaaa);
  ASSERT_TRUE(v6.ok());
  ASSERT_EQ(v6->answers.size(), 1u);
}

// --- NAT expiry -------------------------------------------------------------------

class NatExpiryTest : public ::testing::Test {
 protected:
  NatExpiryTest() {
    config_.mapping_timeout_cycles = 10'000;  // 50 us at 200 MHz, for testing
    service_ = std::make_unique<NatService>(config_);
    target_ = std::make_unique<FpgaTarget>(*service_);
  }

  Packet Outbound(u16 sport) {
    return MakeUdpPacket({config_.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                          Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8), sport, 53},
                         std::vector<u8>{'x'});
  }

  u16 ExternalPortOf(const Packet& frame) {
    Packet copy = frame;
    Ipv4View ip(copy);
    UdpView udp(copy, ip.payload_offset());
    return udp.source_port();
  }

  NatConfig config_;
  std::unique_ptr<NatService> service_;
  std::unique_ptr<FpgaTarget> target_;
};

TEST_F(NatExpiryTest, ExpiredSlotsReclaimedWhenTableFull) {
  // Fill a 4-mapping table completely.
  NatConfig config = config_;
  config.max_mappings = 4;
  NatService service(config);
  FpgaTarget target(service);
  const auto outbound = [&](u16 sport) {
    return MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                          Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8), sport, 53},
                         std::vector<u8>{'x'});
  };
  for (u16 sport = 5000; sport < 5004; ++sport) {
    ASSERT_TRUE(target.SendAndCollect(1, outbound(sport)).ok());
  }
  EXPECT_EQ(service.active_mappings(), 4u);

  // Everything goes idle past the timeout; four NEW flows must all succeed
  // by reclaiming the expired slots (without expiry this would exhaust).
  target.Run(20'000);
  for (u16 sport = 6000; sport < 6004; ++sport) {
    ASSERT_TRUE(target.SendAndCollect(1, outbound(sport)).ok()) << sport;
  }
  EXPECT_LE(service.active_mappings(), 4u);
}

TEST_F(NatExpiryTest, SameFlowReallocatedAfterExpiry) {
  auto first = target_->SendAndCollect(1, Outbound(5000));
  ASSERT_TRUE(first.ok());
  target_->Run(20'000);  // idle past the timeout
  // The SAME flow reappearing gets a fresh (valid) mapping, not the stale one.
  auto second = target_->SendAndCollect(1, Outbound(5000));
  ASSERT_TRUE(second.ok());
  EXPECT_GE(ExternalPortOf(*second), config_.port_base);
}

TEST_F(NatExpiryTest, ActiveFlowIsRefreshedNotExpired) {
  u16 port = 0;
  for (int i = 0; i < 5; ++i) {
    auto out = target_->SendAndCollect(1, Outbound(5000));
    ASSERT_TRUE(out.ok());
    if (i == 0) {
      port = ExternalPortOf(*out);
    } else {
      EXPECT_EQ(ExternalPortOf(*out), port);  // mapping stable while active
    }
    target_->Run(6'000);  // under the timeout between packets
  }
  EXPECT_EQ(service_->active_mappings(), 1u);
}

TEST_F(NatExpiryTest, InboundToExpiredMappingDropped) {
  auto out = target_->SendAndCollect(1, Outbound(5000));
  ASSERT_TRUE(out.ok());
  const u16 ext_port = ExternalPortOf(*out);
  target_->TakeEgress();
  target_->Run(20'000);  // expire

  Packet in = MakeUdpPacket({config_.external_mac, MacAddress::FromU48(0x02ffffffff02),
                             Ipv4Address(8, 8, 8, 8), config_.external_ip, 53, ext_port},
                            std::vector<u8>{'y'});
  target_->Inject(0, std::move(in));
  target_->Run(100'000);
  EXPECT_TRUE(target_->TakeEgress().empty());
}

TEST(NatNoExpiry, DisabledTimeoutKeepsMappingsForever) {
  NatConfig config;  // timeout 0 = disabled
  NatService service(config);
  FpgaTarget target(service);
  Packet out = MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                              Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8), 5000, 53},
                             std::vector<u8>{'x'});
  ASSERT_TRUE(target.SendAndCollect(1, std::move(out)).ok());
  target.Run(1'000'000);
  EXPECT_EQ(service.active_mappings(), 1u);
}

// --- pcap round trip -----------------------------------------------------------------

TEST(PcapRoundTrip, WriteThenReadPreservesBytesAndTimes) {
  TraceDump dump;
  Packet a = MakeUdpPacket({kClientMac, MacAddress::FromU48(7), kClientIp,
                            Ipv4Address(10, 0, 0, 2), 1, 2},
                           std::vector<u8>{1, 2, 3});
  Packet b(130);
  for (usize i = 0; i < b.size(); ++i) {
    b[i] = static_cast<u8>(i);
  }
  // The latest whole microsecond that fits in Picoseconds.
  const Picoseconds latest =
      std::numeric_limits<Picoseconds>::max() / kPicosPerMicro * kPicosPerMicro;
  dump.Capture(250 * kPicosPerMicro, "a", a);
  dump.Capture(1'750'000 * kPicosPerMicro, "b", b);
  dump.Capture(latest, "c", Packet(64));
  const std::string path = "/tmp/emu_roundtrip.pcap";
  ASSERT_TRUE(dump.WritePcap(path));

  auto packets = ReadPcap(path);
  ASSERT_TRUE(packets.ok()) << packets.status().ToString();
  ASSERT_EQ(packets->size(), 3u);
  EXPECT_EQ((*packets)[0].ingress_time(), 250 * kPicosPerMicro);
  EXPECT_EQ((*packets)[1].ingress_time(), 1'750'000 * kPicosPerMicro);
  EXPECT_EQ((*packets)[2].ingress_time(), latest);
  ASSERT_EQ((*packets)[0].size(), a.size());
  for (usize i = 0; i < a.size(); ++i) {
    ASSERT_EQ((*packets)[0][i], a[i]);
  }
  ASSERT_EQ((*packets)[1].size(), 130u);
  EXPECT_EQ((*packets)[1][129], 129);
}

TEST(PcapRoundTrip, RejectsGarbageFiles) {
  const std::string path = "/tmp/emu_notpcap.pcap";
  std::ofstream(path) << "this is not a capture";
  EXPECT_FALSE(ReadPcap(path).ok());
  EXPECT_FALSE(ReadPcap("/tmp/definitely_missing_file.pcap").ok());
}

// A host-endian v2.4 Ethernet capture with one 14-byte all-zero frame per
// (ts_sec, ts_usec) stamp, written to `path`.
void WriteRawPcap(const std::string& path, const std::vector<std::pair<u32, u32>>& stamps) {
  std::ofstream file(path, std::ios::binary);
  const auto put32 = [&file](u32 word) { file.write(reinterpret_cast<const char*>(&word), 4); };
  for (const u32 word : {0xa1b2c3d4u, 0x00040002u, 0u, 0u, 65535u, 1u}) {
    put32(word);
  }
  for (const auto& [sec, usec] : stamps) {
    for (const u32 word : {sec, usec, 14u, 14u}) {
      put32(word);
    }
    file.write(std::string(14, '\0').data(), 14);
  }
}

// A capture stamped in Unix-epoch seconds does not fit a signed 64-bit
// picosecond count, and a microseconds field of a whole second or more is
// out of range: both are rejected, naming the record, rather than read as a
// wrong ingress time.
TEST(PcapRoundTrip, RejectsOutOfRangeTimestamps) {
  const std::string path = ::testing::TempDir() + "emu_bad_stamp.pcap";
  const struct {
    std::vector<std::pair<u32, u32>> stamps;
    const char* record;
  } cases[] = {{{{0, 5}, {1'700'000'000, 0}}, "pcap record 1"},
               {{{0, 5'000'000}}, "pcap record 0"}};
  for (const auto& c : cases) {
    WriteRawPcap(path, c.stamps);
    const Expected<std::vector<Packet>> read = ReadPcap(path);
    ASSERT_FALSE(read.ok()) << c.record;
    EXPECT_EQ(read.status().code(), ErrorCode::kMalformedPacket);
    EXPECT_NE(read.status().message().find(c.record), std::string::npos)
        << read.status().ToString();
  }
}

TEST(PcapRoundTrip, ReplayThroughSwitch) {
  // Capture switch egress, then replay the capture as new ingress — the
  // OSNT trace-replay loop (§5.2) in miniature.
  LearningSwitch service;
  FpgaTarget target(service);
  const MacAddress a = MacAddress::FromU48(0x020000000001);
  const MacAddress b = MacAddress::FromU48(0x020000000002);
  target.Inject(1, MakeEthernetFrame(MacAddress::Broadcast(), b, EtherType::kIpv4, {}));
  target.Run(50'000);
  target.TakeEgress();

  TraceDump dump;
  auto out = target.SendAndCollect(0, MakeEthernetFrame(b, a, EtherType::kIpv4,
                                                        std::vector<u8>{9, 9}));
  ASSERT_TRUE(out.ok());
  dump.Capture(out->egress_time(), "egress", *out);
  const std::string path = "/tmp/emu_replay.pcap";
  ASSERT_TRUE(dump.WritePcap(path));

  auto replay = ReadPcap(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->size(), 1u);
  auto again = target.SendAndCollect(0, std::move((*replay)[0]));
  ASSERT_TRUE(again.ok());  // replayed frame switches like the original
}

// --- Large keys/values (the relaxed Memcached limits) ------------------------------------

TEST(MemcachedLarge, MaxSizedKeyAndValueRoundTrip) {
  MemcachedConfig config;  // defaults: 250 B keys, 1024 B values
  MemcachedService service(config);
  FpgaTarget target(service);

  McRequest set;
  set.protocol = config.protocol;
  set.op = McOpcode::kSet;
  set.key = std::string(250, 'k');
  set.value = std::string(1024, 'v');
  Packet frame = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(set));
  auto reply = target.SendAndCollect(0, std::move(frame), 5'000'000);
  ASSERT_TRUE(reply.ok());

  McRequest get;
  get.protocol = config.protocol;
  get.op = McOpcode::kGet;
  get.key = set.key;
  Packet query = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(get));
  reply = target.SendAndCollect(0, std::move(query), 5'000'000);
  ASSERT_TRUE(reply.ok());
  Packet copy = *reply;
  Ipv4View ip(copy);
  UdpView udp(copy, ip.payload_offset());
  ASSERT_TRUE(udp.ChecksumValid(ip));
  auto response = ParseMcResponse(udp.Payload(), config.protocol);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, McStatus::kNoError);
  EXPECT_EQ(response->value, set.value);
}

TEST(MemcachedLarge, OversizedKeyRejected) {
  MemcachedConfig config;
  MemcachedService service(config);
  FpgaTarget target(service);
  McRequest set;
  set.protocol = config.protocol;
  set.op = McOpcode::kSet;
  set.key = std::string(251, 'k');  // one past the limit
  set.value = "v";
  Packet frame = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(set));
  auto reply = target.SendAndCollect(0, std::move(frame), 5'000'000);
  ASSERT_TRUE(reply.ok());
  Packet copy = *reply;
  Ipv4View ip(copy);
  UdpView udp(copy, ip.payload_offset());
  auto response = ParseMcResponse(udp.Payload(), config.protocol);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->status, McStatus::kNoError);
}

}  // namespace
}  // namespace emu
