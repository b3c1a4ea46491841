#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "src/ip/bram.h"
#include "src/ip/cam.h"
#include "src/ip/checksum_unit.h"
#include "src/ip/dram_model.h"
#include "src/ip/hash_cam.h"
#include "src/ip/logic_cam.h"
#include "src/ip/naughty_q.h"
#include "src/ip/pearson_hash.h"

namespace emu {
namespace {

// --- Cam ----------------------------------------------------------------------

TEST(Cam, MissOnEmpty) {
  Simulator sim;
  Cam cam(sim, "cam", 16, 48, 8);
  EXPECT_FALSE(cam.Lookup(0x1234).hit);
}

TEST(Cam, WriteVisibleAfterEdge) {
  Simulator sim;
  Cam cam(sim, "cam", 16, 48, 8);
  cam.Write(3, 0xaabbccddee, 7);
  EXPECT_FALSE(cam.Lookup(0xaabbccddee).hit);  // pre-edge
  sim.Step();
  const CamLookupResult hit = cam.Lookup(0xaabbccddee);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.value, 7u);
  EXPECT_EQ(hit.index, 3u);
}

TEST(Cam, KeyIsMaskedToKeyWidth) {
  Simulator sim;
  Cam cam(sim, "cam", 8, 16, 8);
  cam.Write(0, 0xdeadbeef, 1);  // only 0xbeef survives the 16-bit mask
  sim.Step();
  EXPECT_TRUE(cam.Lookup(0xbeef).hit);
  EXPECT_TRUE(cam.Lookup(0xffffbeef).hit);  // same masked key
}

TEST(Cam, LowestIndexWinsOnDuplicateKeys) {
  Simulator sim;
  Cam cam(sim, "cam", 8, 48, 8);
  cam.Write(5, 0x42, 50);
  cam.Write(2, 0x42, 20);
  sim.Step();
  const CamLookupResult hit = cam.Lookup(0x42);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.index, 2u);  // priority encoder picks the lowest index
  EXPECT_EQ(hit.value, 20u);
}

TEST(Cam, InvalidateRemovesEntry) {
  Simulator sim;
  Cam cam(sim, "cam", 8, 48, 8);
  cam.Write(1, 0x42, 9);
  sim.Step();
  ASSERT_TRUE(cam.Lookup(0x42).hit);
  cam.Invalidate(1);
  EXPECT_TRUE(cam.Lookup(0x42).hit);  // still visible pre-edge
  sim.Step();
  EXPECT_FALSE(cam.Lookup(0x42).hit);
}

TEST(Cam, OverwriteSameIndexReplacesKey) {
  Simulator sim;
  Cam cam(sim, "cam", 8, 48, 8);
  cam.Write(0, 0x11, 1);
  sim.Step();
  cam.Write(0, 0x22, 2);
  sim.Step();
  EXPECT_FALSE(cam.Lookup(0x11).hit);
  EXPECT_TRUE(cam.Lookup(0x22).hit);
}

TEST(Cam, SingleCycleLookupLatency) {
  Simulator sim;
  Cam cam(sim, "cam", 8, 48, 8);
  EXPECT_EQ(cam.lookup_latency(), 1u);
}

// --- LogicCam: same behaviour, different cost profile ---------------------------

TEST(LogicCam, BehavesLikeIpCam) {
  Simulator sim;
  LogicCam cam(sim, "logic_cam", 16, 48, 8);
  cam.Write(4, 0xcafe, 11);
  sim.Step();
  const CamLookupResult hit = cam.Lookup(0xcafe);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.value, 11u);
  cam.Invalidate(4);
  sim.Step();
  EXPECT_FALSE(cam.Lookup(0xcafe).hit);
}

TEST(LogicCam, SlowerAndLargerThanIp) {
  Simulator sim;
  Cam ip(sim, "ip", 256, 48, 8);
  LogicCam logic(sim, "logic", 256, 48, 8);
  EXPECT_GT(logic.lookup_latency(), ip.lookup_latency());
  EXPECT_GT(logic.resources().luts, ip.resources().luts);
  EXPECT_EQ(logic.resources().bram_units, 0u);
}

// Both CAM variants through the common interface.
class CamVariant : public ::testing::TestWithParam<bool> {
 protected:
  Simulator sim_;
};

TEST_P(CamVariant, FillAllEntriesThenLookupEach) {
  Cam ip(sim_, "ip", 32, 48, 16);
  LogicCam logic(sim_, "logic", 32, 48, 16);
  CamInterface& cam = GetParam() ? static_cast<CamInterface&>(ip) : logic;
  for (usize i = 0; i < cam.entries(); ++i) {
    cam.Write(i, 0x1000 + i, i * 3);
  }
  sim_.Step();
  for (usize i = 0; i < cam.entries(); ++i) {
    const CamLookupResult hit = cam.Lookup(0x1000 + i);
    ASSERT_TRUE(hit.hit) << "entry " << i;
    EXPECT_EQ(hit.value, i * 3);
    EXPECT_EQ(hit.index, i);
  }
  EXPECT_FALSE(cam.Lookup(0x2000).hit);
}

INSTANTIATE_TEST_SUITE_P(IpAndLogic, CamVariant, ::testing::Bool());

// --- Bram -----------------------------------------------------------------------

TEST(Bram, ReadsZeroInitially) {
  Simulator sim;
  Bram ram(sim, "ram", 64, 32);
  EXPECT_EQ(ram.Read(13), 0u);
}

TEST(Bram, WriteCommitsOnEdge) {
  Simulator sim;
  Bram ram(sim, "ram", 64, 32);
  ram.Write(5, 0xabcd);
  EXPECT_EQ(ram.Read(5), 0u);
  sim.Step();
  EXPECT_EQ(ram.Read(5), 0xabcdu);
}

TEST(Bram, WordWidthMasksValue) {
  Simulator sim;
  Bram ram(sim, "ram", 8, 8);
  ram.Write(0, 0x1ff);
  sim.Step();
  EXPECT_EQ(ram.Read(0), 0xffu);
}

TEST(Bram, ResourcesScaleWithCapacity) {
  Simulator sim;
  Bram small(sim, "small", 64, 32);
  Bram big(sim, "big", 65536, 64);
  EXPECT_GT(big.resources().bram_units, small.resources().bram_units);
}

// --- DramModel --------------------------------------------------------------------

TEST(Dram, RowHitFasterThanRowMiss) {
  Simulator sim;
  DramModel dram(sim, "dram", 1 << 20);
  // Issue outside any refresh window (cycle 100).
  const Cycle first = dram.AccessLatency(0, 100);    // row miss (cold)
  const Cycle second = dram.AccessLatency(8, 101);   // same row: hit
  EXPECT_GT(first, second);
}

TEST(Dram, RefreshWindowAddsStall) {
  Simulator sim;
  DramTiming timing;
  DramModel dram(sim, "dram", 1 << 20, timing);
  dram.AccessLatency(0, 100);  // open the row
  const Cycle quiet = dram.AccessLatency(8, 200);
  // Refresh starts at multiples of refresh_interval; probe right inside one.
  const Cycle stalled = dram.AccessLatency(16, timing.refresh_interval + 1);
  EXPECT_GT(stalled, quiet);
}

TEST(Dram, LatencyVariesAcrossTime) {
  Simulator sim;
  DramModel dram(sim, "dram", 1 << 20);
  std::set<Cycle> latencies;
  for (Cycle t = 0; t < 4000; t += 37) {
    latencies.insert(dram.AccessLatency((t * 64) % (1 << 20), t));
  }
  // The §5.4 point: DRAM latency is *variable*.
  EXPECT_GT(latencies.size(), 2u);
}

TEST(Dram, ReadBackWrittenValue) {
  Simulator sim;
  DramModel dram(sim, "dram", 1 << 16);
  dram.Write(1024, 0x1122334455667788ULL);
  EXPECT_EQ(dram.Read(1024), 0x1122334455667788ULL);
  EXPECT_EQ(dram.Read(2048), 0u);
}

// --- PearsonHash ---------------------------------------------------------------

TEST(PearsonHash, TableIsAPermutation) {
  std::array<bool, 256> seen{};
  for (u8 v : PearsonTable()) {
    EXPECT_FALSE(seen[v]) << "duplicate value " << static_cast<int>(v);
    seen[v] = true;
  }
}

TEST(PearsonHash, DeterministicAndInputSensitive) {
  const std::string a = "hello";
  const std::string b = "hellp";
  const auto bytes = [](const std::string& s) {
    return std::span<const u8>(reinterpret_cast<const u8*>(s.data()), s.size());
  };
  EXPECT_EQ(PearsonHash64(bytes(a)), PearsonHash64(bytes(a)));
  EXPECT_NE(PearsonHash64(bytes(a)), PearsonHash64(bytes(b)));
}

TEST(PearsonHash, EmptyInputHashesToZero) {
  EXPECT_EQ(PearsonHash64(std::span<const u8>{}), 0u);
}

TEST(PearsonHash, KeyOverloadMatchesByteOverload) {
  const u64 key = 0x0102030405060708ULL;
  u8 bytes[8];
  for (usize i = 0; i < 8; ++i) {
    bytes[i] = static_cast<u8>(key >> (8 * i));
  }
  EXPECT_EQ(PearsonHash64(key), PearsonHash64(std::span<const u8>(bytes, 8)));
}

TEST(PearsonHash, DistributesAcrossBuckets) {
  std::set<u64> buckets;
  for (u64 k = 0; k < 256; ++k) {
    buckets.insert(PearsonHash64(k) % 64);
  }
  EXPECT_GT(buckets.size(), 48u);  // most of 64 buckets touched
}

TEST(PearsonHashIp, HardwareMatchesSoftware) {
  Simulator sim;
  PearsonHashIp core(sim, "pearson");
  const std::array<u8, 5> data = {'e', 'm', 'u', '1', '7'};
  sim.AddProcess(core.MakeProcess(), "core");
  sim.AddProcess(PearsonHashIp::Seed(core, data), "client");
  // The client completes once the core has absorbed its last byte.
  ASSERT_TRUE(sim.RunUntil([&] { return sim.live_process_count() == 1; }, 200));
  EXPECT_EQ(core.hash_out().Read(), PearsonHash64(data));
}

// --- NaughtyQ -------------------------------------------------------------------

TEST(NaughtyQ, EnlistReadRoundTrip) {
  Simulator sim;
  NaughtyQ q(sim, "q", 4);
  const auto r = q.Enlist(0xaa);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(q.Read(r.index), 0xaau);
  EXPECT_EQ(q.size(), 1u);
}

TEST(NaughtyQ, EvictsLeastRecentlyUsedWhenFull) {
  Simulator sim;
  NaughtyQ q(sim, "q", 3);
  const auto a = q.Enlist(1);
  q.Enlist(2);
  q.Enlist(3);
  EXPECT_TRUE(q.Full());
  const auto d = q.Enlist(4);
  EXPECT_TRUE(d.evicted);
  EXPECT_EQ(d.evicted_value, 1u);  // oldest
  EXPECT_EQ(d.index, a.index);     // slot reused
}

TEST(NaughtyQ, BackOfQProtectsFromEviction) {
  Simulator sim;
  NaughtyQ q(sim, "q", 3);
  const auto a = q.Enlist(1);
  q.Enlist(2);
  q.Enlist(3);
  q.BackOfQ(a.index);  // touch 1: now 2 is the LRU
  const auto d = q.Enlist(4);
  EXPECT_TRUE(d.evicted);
  EXPECT_EQ(d.evicted_value, 2u);
}

TEST(NaughtyQ, FrontIndexTracksLru) {
  Simulator sim;
  NaughtyQ q(sim, "q", 3);
  const auto a = q.Enlist(1);
  const auto b = q.Enlist(2);
  EXPECT_EQ(q.FrontIndex(), a.index);
  q.BackOfQ(a.index);
  EXPECT_EQ(q.FrontIndex(), b.index);
}

TEST(NaughtyQ, SequentialEvictionOrderIsFifoWithoutTouches) {
  Simulator sim;
  NaughtyQ q(sim, "q", 4);
  for (u64 v = 0; v < 4; ++v) {
    q.Enlist(v);
  }
  for (u64 v = 4; v < 12; ++v) {
    const auto r = q.Enlist(v);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.evicted_value, v - 4);
  }
}

// --- HashCam --------------------------------------------------------------------

TEST(HashCam, MissWhenEmpty) {
  Simulator sim;
  HashCam cam(sim, "hc", 64);
  cam.Read(0x1234);
  EXPECT_FALSE(cam.matched());
}

TEST(HashCam, WriteThenReadMatches) {
  Simulator sim;
  HashCam cam(sim, "hc", 64);
  ASSERT_TRUE(cam.Write(0xfeed, 17));
  const u64 idx = cam.Read(0xfeed);
  EXPECT_TRUE(cam.matched());
  EXPECT_EQ(idx, 17u);
}

TEST(HashCam, WriteUpdatesExistingKey) {
  Simulator sim;
  HashCam cam(sim, "hc", 64);
  ASSERT_TRUE(cam.Write(0xfeed, 1));
  ASSERT_TRUE(cam.Write(0xfeed, 2));
  EXPECT_EQ(cam.Read(0xfeed), 2u);
}

TEST(HashCam, EraseRemovesBinding) {
  Simulator sim;
  HashCam cam(sim, "hc", 64);
  ASSERT_TRUE(cam.Write(0xfeed, 1));
  cam.Erase(0xfeed);
  cam.Read(0xfeed);
  EXPECT_FALSE(cam.matched());
}

TEST(HashCam, EraseMidChainDoesNotOrphanLaterKeys) {
  Simulator sim;
  HashCam cam(sim, "hc", 16);
  // Load enough keys that probe chains form, then erase some and verify the
  // rest stay reachable (Read scans the whole probe window, so no tombstones
  // are needed).
  std::vector<u64> keys;
  for (u64 k = 0; k < 200 && keys.size() < 12; ++k) {
    if (cam.Write(k, k * 10)) {
      keys.push_back(k);
    }
  }
  ASSERT_GE(keys.size(), 8u);
  cam.Erase(keys[0]);
  cam.Erase(keys[2]);
  for (usize i = 0; i < keys.size(); ++i) {
    const u64 idx = cam.Read(keys[i]);
    if (i == 0 || i == 2) {
      EXPECT_FALSE(cam.matched());
    } else {
      EXPECT_TRUE(cam.matched()) << "key " << keys[i];
      EXPECT_EQ(idx, keys[i] * 10);
    }
  }
}

TEST(HashCam, WriteFailsWhenProbeWindowFull) {
  Simulator sim;
  HashCam cam(sim, "hc", 8);  // tiny: 8 buckets, window 8
  usize installed = 0;
  for (u64 k = 0; k < 64; ++k) {
    if (cam.Write(k, k)) {
      ++installed;
    }
  }
  EXPECT_LE(installed, 8u);
  EXPECT_LT(installed, 64u);
}

// --- ChecksumUnit ---------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 ->
  // fold -> 0xddf2, complement -> 0x220d.
  Simulator sim;
  ChecksumUnit unit(sim, "csum");
  unit.Add16(0x0001);
  unit.Add16(0xf203);
  unit.Add16(0xf4f5);
  unit.Add16(0xf6f7);
  EXPECT_EQ(unit.Result(), 0x220d);
}

TEST(Checksum, OddByteCountPadsLow) {
  Simulator sim;
  ChecksumUnit unit(sim, "csum");
  const std::array<u8, 3> data = {0x01, 0x02, 0x03};
  unit.AddBytes(data);
  // Sum = 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(unit.Result(), 0xfbfd);
}

TEST(Checksum, ResetClearsState) {
  Simulator sim;
  ChecksumUnit unit(sim, "csum");
  unit.Add16(0x1234);
  unit.Reset();
  unit.Add16(0x0001);
  EXPECT_EQ(unit.Result(), static_cast<u16>(~0x0001 & 0xffff));
}

TEST(Checksum, InjectedFoldBugOnlyShowsOnCarry) {
  Simulator sim;
  ChecksumUnit good(sim, "good");
  ChecksumUnit bad(sim, "bad");
  bad.InjectFoldBug(true);

  // Small sum, no carry out of 16 bits: the bug is invisible (why the
  // paper's simulation missed it).
  good.Add16(0x0102);
  bad.Add16(0x0102);
  EXPECT_EQ(good.Result(), bad.Result());

  // Large sum with carries: results diverge.
  good.Reset();
  bad.Reset();
  for (int i = 0; i < 10; ++i) {
    good.Add16(0xffff);
    bad.Add16(0xffff);
  }
  EXPECT_NE(good.Result(), bad.Result());
}

TEST(Checksum, VerifyPropertySumWithChecksumIsZero) {
  // Property: appending the computed checksum makes the folded sum 0xffff
  // (i.e. verification yields 0) for arbitrary payloads.
  Simulator sim;
  for (u64 seed = 1; seed <= 5; ++seed) {
    ChecksumUnit unit(sim, "csum");
    std::vector<u8> payload;
    for (usize i = 0; i < 40 + seed * 7; ++i) {
      payload.push_back(static_cast<u8>(seed * 37 + i * 11));
    }
    unit.AddBytes(payload);
    const u16 checksum = unit.Result();

    ChecksumUnit verify(sim, "verify");
    std::vector<u8> with_sum = payload;
    if (with_sum.size() % 2 != 0) {
      with_sum.push_back(0);
    }
    with_sum.push_back(static_cast<u8>(checksum >> 8));
    with_sum.push_back(static_cast<u8>(checksum));
    verify.AddBytes(with_sum);
    EXPECT_EQ(verify.Result(), 0u) << "seed " << seed;
  }
}

TEST(Checksum, CycleCostModel) {
  Simulator sim;
  ChecksumUnit unit(sim, "csum");
  EXPECT_EQ(unit.CyclesForBytes(0), 1u);
  EXPECT_EQ(unit.CyclesForBytes(64), 9u);
}

}  // namespace
}  // namespace emu
