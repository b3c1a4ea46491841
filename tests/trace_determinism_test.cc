// emu-scope determinism: the trace a run exports is a pure function of the
// workload — independent of thread count, and stable against a checked-in
// golden file.
//
// The golden file (tests/golden/emu_scope_small.json) pins the exported
// Perfetto JSON of a small fixed-seed sharded learning-switch run. If an
// intentional change to the event model or exporter shifts the bytes,
// regenerate with:
//   EMU_REGEN_GOLDEN=1 ./build/tests/emu_tests \
//       --gtest_filter=TraceDeterminism.GoldenFileMatches
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/ethernet.h"
#include "src/net/udp.h"
#include "src/obs/trace.h"
#include "src/services/learning_switch.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

#ifdef EMU_TRACE

// A small, fully deterministic workload: 3 hosts around a learning switch,
// one broadcast announcement each, then two unicast rounds.
std::string RunTracedSwitch(usize threads) {
  obs::TraceSession session;
  session.Install();

  LearningSwitch service;
  std::vector<HostSpec> specs = {
      {"h0", MacAddress::FromU48(0x020000000001), Ipv4Address(10, 0, 0, 1)},
      {"h1", MacAddress::FromU48(0x020000000002), Ipv4Address(10, 0, 0, 2)},
      {"h2", MacAddress::FromU48(0x020000000003), Ipv4Address(10, 0, 0, 3)}};
  TopologyBuilder topo;
  topo.BuildStar(service, specs);
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp([](SimHost&, Packet) {});
  }
  for (usize i = 0; i < specs.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
    topo.host(i).scheduler().At(at, [&topo, i] {
      topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                          EtherType::kIpv4,
                                          std::vector<u8>{static_cast<u8>(i)}));
    });
  }
  for (usize round = 0; round < 2; ++round) {
    for (usize i = 0; i < specs.size(); ++i) {
      const usize dst = (i + 1 + round) % specs.size();
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
  topo.Run({.threads = threads});
  obs::TraceSession::Detach();
  return session.ExportChromeJson();
}

TEST(TraceDeterminism, ThreadCountDoesNotChangeTheTrace) {
  const std::string serial = RunTracedSwitch(1);
  // The workload must actually trace something, or the comparison is vacuous.
  EXPECT_NE(serial.find("pkt.flight"), std::string::npos);
  EXPECT_NE(serial.find("link.transit"), std::string::npos);
  for (usize threads : {2u, 4u}) {
    const std::string parallel = RunTracedSwitch(threads);
    EXPECT_EQ(parallel, serial) << "threads=" << threads
                                << " exported different trace bytes";
  }
}

TEST(TraceDeterminism, ExportIsSchemaValid) {
  const std::string json = RunTracedSwitch(1);
  std::string error;
  EXPECT_TRUE(obs::ValidateChromeTraceJson(json, &error)) << error;
}

TEST(TraceDeterminism, GoldenFileMatches) {
  const std::string path = std::string(EMU_TEST_SOURCE_DIR) + "/golden/emu_scope_small.json";
  const std::string json = RunTracedSwitch(4);

  if (std::getenv("EMU_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    ASSERT_TRUE(out);
    GTEST_SKIP() << "golden file regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with EMU_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(json, buffer.str())
      << "exported trace diverged from the golden file; if the change is "
         "intentional, regenerate with EMU_REGEN_GOLDEN=1";
}

#else  // !EMU_TRACE

TEST(TraceDeterminism, SkippedWithoutTracing) {
  GTEST_SKIP() << "built with EMU_TRACE=OFF";
}

#endif  // EMU_TRACE

}  // namespace
}  // namespace emu
