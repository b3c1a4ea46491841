// Memcached service and the Fig. 9 LRU cache block.
#include <gtest/gtest.h>

#include "src/core/targets.h"
#include "src/net/udp.h"
#include "src/services/lru_cache.h"
#include "src/services/memcached_service.h"

namespace emu {
namespace {

const MacAddress kClientMac = MacAddress::FromU48(0x02'00'00'00'cc'02);
const Ipv4Address kClientIp(10, 0, 0, 8);

// --- LruCacheBlock (Fig. 9) -----------------------------------------------------

TEST(LruCacheBlock, MissThenHit) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 8);
  EXPECT_FALSE(cache.Lookup(0x11).matched);
  cache.Cache(0x11, 0xaa);
  const auto hit = cache.Lookup(0x11);
  ASSERT_TRUE(hit.matched);
  EXPECT_EQ(hit.result, 0xaau);
}

TEST(LruCacheBlock, EvictsLeastRecentlyUsed) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 3);
  cache.Cache(1, 100);
  cache.Cache(2, 200);
  cache.Cache(3, 300);
  cache.Lookup(1);  // touch 1 -> 2 is now LRU
  cache.Cache(4, 400);
  EXPECT_TRUE(cache.Lookup(1).matched);
  EXPECT_FALSE(cache.Lookup(2).matched);  // evicted
  EXPECT_TRUE(cache.Lookup(3).matched);
  EXPECT_TRUE(cache.Lookup(4).matched);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheBlock, RecacheUpdatesValue) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 4);
  cache.Cache(7, 1);
  cache.Cache(7, 2);
  const auto hit = cache.Lookup(7);
  ASSERT_TRUE(hit.matched);
  EXPECT_EQ(hit.result, 2u);
}

TEST(LruCacheBlock, EraseFreesSlotForReuse) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 2);
  cache.Cache(1, 10);
  cache.Cache(2, 20);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Lookup(1).matched);
  // The erased slot is recycled before any live entry is evicted.
  cache.Cache(3, 30);
  EXPECT_TRUE(cache.Lookup(2).matched);
  EXPECT_TRUE(cache.Lookup(3).matched);
}

TEST(LruCacheBlock, EraseMissingReturnsFalse) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 2);
  EXPECT_FALSE(cache.Erase(42));
}

TEST(LruCacheBlock, StressManyKeysStaysConsistent) {
  Simulator sim;
  LruCacheBlock cache(sim, "lru", 64);
  // Insert far more keys than capacity; the most recent ~capacity survive.
  for (u64 k = 1; k <= 1000; ++k) {
    cache.Cache(k, k * 2);
  }
  usize live = 0;
  for (u64 k = 1; k <= 1000; ++k) {
    const auto hit = cache.Lookup(k);
    if (hit.matched) {
      EXPECT_EQ(hit.result, k * 2);
      ++live;
    }
  }
  EXPECT_LE(live, 64u);
  EXPECT_GT(live, 16u);  // probe-window losses allowed, but most slots live
  EXPECT_TRUE(cache.Lookup(1000).matched);  // most recent key always present
}

// --- Memcached service ------------------------------------------------------------

class MemcachedTest : public ::testing::TestWithParam<McProtocol> {
 protected:
  MemcachedTest() {
    config_.protocol = GetParam();
    service_ = std::make_unique<MemcachedService>(config_);
    target_ = std::make_unique<FpgaTarget>(*service_);
  }

  Packet MakeRequestPacket(const McRequest& request, u16 client_port = 31000) {
    McRequest copy = request;
    copy.protocol = config_.protocol;
    return MakeUdpPacket(
        {config_.mac, kClientMac, kClientIp, config_.ip, client_port, kMemcachedPort},
        BuildMcRequest(copy));
  }

  Expected<McResponse> Exchange(const McRequest& request, u8 port = 0) {
    auto reply = target_->SendAndCollect(port, MakeRequestPacket(request));
    if (!reply.ok()) {
      return reply.status();
    }
    Ipv4View ip(*reply);
    UdpView udp(*reply, ip.payload_offset());
    if (!udp.Valid()) {
      return MalformedPacket("bad UDP reply");
    }
    return ParseMcResponse(udp.Payload(), config_.protocol);
  }

  MemcachedConfig config_;
  std::unique_ptr<MemcachedService> service_;
  std::unique_ptr<FpgaTarget> target_;
};

TEST_P(MemcachedTest, GetMissThenSetThenHit) {
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "key001";

  auto miss = Exchange(get);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(miss->status, McStatus::kKeyNotFound);

  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "key001";
  set.value = "12345678";
  set.flags = 3;
  auto stored = Exchange(set);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->status, McStatus::kNoError);

  auto hit = Exchange(get);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->status, McStatus::kNoError);
  EXPECT_EQ(hit->value, "12345678");
  EXPECT_EQ(service_->get_hits(), 1u);
}

TEST_P(MemcachedTest, DeleteRemovesKey) {
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "gone";
  set.value = "v";
  ASSERT_TRUE(Exchange(set).ok());

  McRequest del;
  del.op = McOpcode::kDelete;
  del.key = "gone";
  auto deleted = Exchange(del);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->status, McStatus::kNoError);

  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "gone";
  auto miss = Exchange(get);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->status, McStatus::kKeyNotFound);
}

TEST_P(MemcachedTest, DeleteMissingKeyReportsNotFound) {
  McRequest del;
  del.op = McOpcode::kDelete;
  del.key = "never";
  auto response = Exchange(del);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, McStatus::kKeyNotFound);
}

TEST_P(MemcachedTest, OverwriteUpdatesValue) {
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "k";
  set.value = "old";
  ASSERT_TRUE(Exchange(set).ok());
  set.value = "new";
  ASSERT_TRUE(Exchange(set).ok());
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "k";
  auto hit = Exchange(get);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->value, "new");
}

TEST_P(MemcachedTest, UdpChecksumOfRepliesIsValid) {
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "csum";
  set.value = "abcdefgh";
  auto reply = target_->SendAndCollect(0, MakeRequestPacket(set));
  ASSERT_TRUE(reply.ok());
  Ipv4View ip(*reply);
  UdpView udp(*reply, ip.payload_offset());
  EXPECT_TRUE(udp.ChecksumValid(ip));
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, MemcachedTest,
                         ::testing::Values(McProtocol::kBinary, McProtocol::kAscii));

TEST(MemcachedChecksumBug, InjectedBugBreaksLongRepliesOnly) {
  // Reproduces the §5.5 hunt: short replies checksum fine, longer GET hits
  // produce invalid checksums when the fold bug is injected.
  MemcachedConfig config;
  config.protocol = McProtocol::kAscii;
  MemcachedService service(config);
  FpgaTarget target(service);
  service.InjectChecksumBug(true);

  auto send = [&](const McRequest& request) {
    McRequest copy = request;
    copy.protocol = config.protocol;
    Packet packet = MakeUdpPacket(
        {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
        BuildMcRequest(copy));
    return target.SendAndCollect(0, std::move(packet));
  };

  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "bug";
  set.value = std::string(64, 'x');  // long value -> carries in the checksum
  ASSERT_TRUE(send(set).ok());

  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "bug";
  auto reply = send(get);
  ASSERT_TRUE(reply.ok());
  Ipv4View ip(*reply);
  UdpView udp(*reply, ip.payload_offset());
  EXPECT_FALSE(udp.ChecksumValid(ip));  // the bug observable on the wire

  service.InjectChecksumBug(false);
  auto fixed = send(get);
  ASSERT_TRUE(fixed.ok());
  Ipv4View ip2(*fixed);
  UdpView udp2(*fixed, ip2.payload_offset());
  EXPECT_TRUE(udp2.ChecksumValid(ip2));
}

TEST(MemcachedMultiCore, SetsReplicateGetsPartition) {
  MemcachedConfig config;
  config.protocol = McProtocol::kAscii;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);

  McRequest set;
  set.protocol = config.protocol;
  set.op = McOpcode::kSet;
  set.key = "shared";
  set.value = "v";
  Packet packet = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(set));
  // One SET from port 2: exactly one STORED reply even though all cores
  // apply it.
  target.Inject(2, std::move(packet));
  ASSERT_TRUE(target.RunUntilEgressCount(1, 500'000));
  target.Run(20'000);
  EXPECT_EQ(target.egress().size(), 1u);
  target.TakeEgress();

  // GETs from every port hit their own core's replica.
  McRequest get;
  get.protocol = config.protocol;
  get.op = McOpcode::kGet;
  get.key = "shared";
  for (u8 port = 0; port < 4; ++port) {
    Packet query = MakeUdpPacket(
        {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
        BuildMcRequest(get));
    auto reply = target.SendAndCollect(port, std::move(query));
    ASSERT_TRUE(reply.ok()) << "port " << static_cast<int>(port);
    Ipv4View ip(*reply);
    UdpView udp(*reply, ip.payload_offset());
    auto response = ParseMcResponse(udp.Payload(), config.protocol);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, McStatus::kNoError) << "port " << static_cast<int>(port);
    EXPECT_EQ(response->value, "v");
  }
  EXPECT_EQ(service.get_hits(), 4u);
}

TEST(MemcachedServiceDeathTest, ZeroCoresAborts) {
  // The dispatcher picks a core as src_port % cores: zero cores would divide
  // by zero on the first frame.
  MemcachedConfig config;
  config.cores = 0;
  EXPECT_DEATH(MemcachedService{config}, "emu: fatal: MemcachedService: cores=0, want 1..4");
}

TEST(MemcachedDram, DramBackendStillCorrect) {
  MemcachedConfig config;
  config.protocol = McProtocol::kBinary;
  config.backend = McBackend::kDram;
  MemcachedService service(config);
  FpgaTarget target(service);

  McRequest set;
  set.protocol = config.protocol;
  set.op = McOpcode::kSet;
  set.key = "dram";
  set.value = "value123";
  Packet packet = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(set));
  ASSERT_TRUE(target.SendAndCollect(0, std::move(packet)).ok());

  McRequest get;
  get.protocol = config.protocol;
  get.op = McOpcode::kGet;
  get.key = "dram";
  Packet query = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(get));
  auto reply = target.SendAndCollect(0, std::move(query));
  ASSERT_TRUE(reply.ok());
  Ipv4View ip(*reply);
  UdpView udp(*reply, ip.payload_offset());
  auto response = ParseMcResponse(udp.Payload(), config.protocol);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->value, "value123");
}

TEST(MemcachedEviction, LruCapacityRespected) {
  MemcachedConfig config;
  config.protocol = McProtocol::kBinary;
  config.capacity = 8;
  MemcachedService service(config);
  FpgaTarget target(service);

  auto send = [&](const McRequest& request) {
    McRequest copy = request;
    copy.protocol = config.protocol;
    Packet packet = MakeUdpPacket(
        {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
        BuildMcRequest(copy));
    auto reply = target.SendAndCollect(0, std::move(packet));
    EXPECT_TRUE(reply.ok());
  };

  for (int i = 0; i < 20; ++i) {
    McRequest set;
    set.op = McOpcode::kSet;
    set.key = "key" + std::to_string(i);
    set.value = "v" + std::to_string(i);
    send(set);
  }
  // The most recent key must still be present; the oldest must be gone.
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "key19";
  get.protocol = config.protocol;
  Packet query = MakeUdpPacket(
      {config.mac, kClientMac, kClientIp, config.ip, 31000, kMemcachedPort},
      BuildMcRequest(get));
  auto reply = target.SendAndCollect(0, std::move(query));
  ASSERT_TRUE(reply.ok());
  Ipv4View ip(*reply);
  UdpView udp(*reply, ip.payload_offset());
  auto response = ParseMcResponse(udp.Payload(), config.protocol);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, McStatus::kNoError);
  EXPECT_EQ(response->value, "v19");
}

}  // namespace
}  // namespace emu
