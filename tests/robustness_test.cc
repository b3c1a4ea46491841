// Robustness: VLAN tagging, the pcap writer and reader, parser fuzzing (no parser may
// crash or over-read on arbitrary bytes), and live backtraces of stalled
// services.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/chain/scenario_spec.h"
#include "src/chain/stage_factory.h"
#include "src/common/fnv.h"
#include "src/common/rng.h"
#include "src/core/targets.h"
#include "src/fault/fault_plan.h"
#include "src/fault/frame_impairer.h"
#include "src/debug/command_parser.h"
#include "src/debug/controller.h"
#include "src/debug/direction_packet.h"
#include "src/net/arp.h"
#include "src/net/dns.h"
#include "src/net/memcached.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/net/vlan.h"
#include "src/obs/slo.h"
#include "src/services/dns_service.h"
#include "src/services/iptables_cli.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/sim/trace_dump.h"

namespace emu {
namespace {

const MacAddress kMacA = MacAddress::FromU48(0x02'00'00'00'00'0a);
const MacAddress kMacB = MacAddress::FromU48(0x02'00'00'00'00'0b);

// --- VLAN -----------------------------------------------------------------------

TEST(Vlan, InsertAndReadTag) {
  Packet frame = MakeEthernetFrame(kMacB, kMacA, EtherType::kIpv4, std::vector<u8>{1, 2, 3});
  ASSERT_FALSE(VlanView(frame).Tagged());
  InsertVlanTag(frame, 42, 5);
  VlanView vlan(frame);
  ASSERT_TRUE(vlan.Tagged());
  EXPECT_EQ(vlan.vlan_id(), 42);
  EXPECT_EQ(vlan.priority(), 5);
  EXPECT_EQ(vlan.inner_ether_type(), static_cast<u16>(EtherType::kIpv4));
}

TEST(Vlan, StripRestoresOriginalBytes) {
  Packet frame = MakeEthernetFrame(kMacB, kMacA, EtherType::kIpv4, std::vector<u8>{9, 8, 7});
  const std::vector<u8> original(frame.bytes().begin(), frame.bytes().end());
  InsertVlanTag(frame, 100);
  ASSERT_TRUE(StripVlanTag(frame));
  const std::vector<u8> restored(frame.bytes().begin(), frame.bytes().end());
  EXPECT_EQ(restored, original);
  EXPECT_FALSE(StripVlanTag(frame));  // second strip: nothing to remove
}

TEST(Vlan, SettersRewriteTciFields) {
  Packet frame = MakeEthernetFrame(kMacB, kMacA, EtherType::kArp, {});
  InsertVlanTag(frame, 1, 0);
  VlanView vlan(frame);
  vlan.set_vlan_id(0xfff);
  vlan.set_priority(7);
  EXPECT_EQ(vlan.vlan_id(), 0xfff);
  EXPECT_EQ(vlan.priority(), 7);
  vlan.set_vlan_id(3);
  EXPECT_EQ(vlan.priority(), 7);  // priority untouched by VID write
}

TEST(Vlan, EffectiveEtherTypeSeesThroughTag) {
  Packet frame = MakeEthernetFrame(kMacB, kMacA, EtherType::kIpv4, {});
  EXPECT_EQ(EffectiveEtherType(frame), static_cast<u16>(EtherType::kIpv4));
  EXPECT_EQ(L3Offset(frame), kEthernetHeaderSize);
  InsertVlanTag(frame, 7);
  EXPECT_EQ(EffectiveEtherType(frame), static_cast<u16>(EtherType::kIpv4));
  EXPECT_EQ(L3Offset(frame), kEthernetHeaderSize + kVlanTagSize);
}

TEST(Vlan, SwitchForwardsTaggedFramesTransparently) {
  // The learning switch keys on MACs, which precede the tag: tagged traffic
  // switches identically and arrives with the tag intact.
  LearningSwitch service;
  FpgaTarget target(service);
  Packet teach = MakeEthernetFrame(MacAddress::Broadcast(), kMacB, EtherType::kIpv4, {});
  InsertVlanTag(teach, 10);
  target.Inject(1, std::move(teach));
  target.Run(50'000);
  target.TakeEgress();

  Packet frame = MakeEthernetFrame(kMacB, kMacA, EtherType::kIpv4, std::vector<u8>{5});
  InsertVlanTag(frame, 10, 3);
  auto out = target.SendAndCollect(0, std::move(frame));
  ASSERT_TRUE(out.ok());
  VlanView vlan(*out);
  ASSERT_TRUE(vlan.Tagged());
  EXPECT_EQ(vlan.vlan_id(), 10);
  EXPECT_EQ(vlan.priority(), 3);
}

// --- Pcap writer ------------------------------------------------------------------

TEST(Pcap, WritesValidHeaderAndRecords) {
  TraceDump dump;
  Packet a(64);
  a[0] = 0xaa;
  Packet b(128);
  dump.Capture(1 * kPicosPerMicro, "rx", a);
  dump.Capture(2'500'000 * kPicosPerMicro, "tx", b);  // 2.5 s
  const std::string path = "/tmp/emu_trace_test.pcap";
  ASSERT_TRUE(dump.WritePcap(path));

  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good());
  u32 magic = 0;
  file.read(reinterpret_cast<char*>(&magic), 4);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  file.seekg(20);
  u32 linktype = 0;
  file.read(reinterpret_cast<char*>(&linktype), 4);
  EXPECT_EQ(linktype, 1u);  // Ethernet
  // First record header.
  u32 ts_sec = 0;
  u32 ts_usec = 0;
  u32 incl = 0;
  u32 orig = 0;
  file.read(reinterpret_cast<char*>(&ts_sec), 4);
  file.read(reinterpret_cast<char*>(&ts_usec), 4);
  file.read(reinterpret_cast<char*>(&incl), 4);
  file.read(reinterpret_cast<char*>(&orig), 4);
  EXPECT_EQ(ts_sec, 0u);
  EXPECT_EQ(ts_usec, 1u);
  EXPECT_EQ(incl, 64u);
  EXPECT_EQ(orig, 64u);
  // Second record is 2.5 s in.
  file.seekg(24 + 16 + 64);
  file.read(reinterpret_cast<char*>(&ts_sec), 4);
  file.read(reinterpret_cast<char*>(&ts_usec), 4);
  EXPECT_EQ(ts_sec, 2u);
  EXPECT_EQ(ts_usec, 500'000u);
}

// --- Parser fuzzing ------------------------------------------------------------------

// Property: no wire-format parser crashes, loops, or asserts on arbitrary
// bytes — it either parses or returns an error.
class ParserFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ParserFuzz, AllParsersSurviveRandomBytes) {
  Rng rng(GetParam());
  for (int round = 0; round < 400; ++round) {
    std::vector<u8> data(rng.NextBelow(200), 0);
    for (auto& b : data) {
      b = static_cast<u8>(rng.NextU64());
    }
    (void)ParseDnsQuery(data);
    (void)ParseDnsResponse(data);
    (void)ParseMcBinaryRequest(data);
    (void)ParseMcBinaryResponse(data);
    (void)ParseMcAsciiRequest(data);
    (void)ParseMcAsciiResponse(data);
    Packet frame{std::vector<u8>(data)};
    (void)IsDirectionPacket(frame);
    (void)ParseDirectionPacket(frame);
    (void)DescribePacket(frame);
  }
}

TEST_P(ParserFuzz, MutatedValidMessagesNeverCrashParsers) {
  Rng rng(GetParam() + 1);
  const std::vector<u8> dns = BuildDnsQuery(7, "svc.lab");
  McRequest request;
  request.op = McOpcode::kSet;
  request.key = "abc";
  request.value = "value";
  const std::vector<u8> binary = BuildMcBinaryRequest(request);
  for (int round = 0; round < 400; ++round) {
    std::vector<u8> mutated = (round % 2 == 0) ? dns : binary;
    // Flip a few random bytes and maybe truncate.
    for (int flips = 0; flips < 3; ++flips) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<u8>(rng.NextU64());
    }
    if (rng.NextBool(0.3)) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    (void)ParseDnsQuery(mutated);
    (void)ParseMcBinaryRequest(mutated);
    (void)ParseMcAsciiRequest(mutated);
  }
}

TEST_P(ParserFuzz, IptablesParserSurvivesGarbage) {
  Rng rng(GetParam() + 2);
  const char charset[] = "-AFORWARDptcpudsj.0123456789:/ DROPACCEPT\t";
  for (int round = 0; round < 300; ++round) {
    std::string line;
    const usize len = rng.NextBelow(60);
    for (usize i = 0; i < len; ++i) {
      line += charset[rng.NextBelow(sizeof(charset) - 1)];
    }
    (void)ParseIptablesRule(line);
    (void)ParseIptablesScript(line + "\n" + line);
  }
}

TEST_P(ParserFuzz, ServicePipelineSurvivesGarbageFrames) {
  // End to end: random bytes through the whole FPGA pipeline into a service
  // must never crash or wedge the simulation.
  Rng rng(GetParam() + 3);
  MemcachedConfig config;
  MemcachedService service(config);
  FpgaTarget target(service);
  for (int round = 0; round < 60; ++round) {
    std::vector<u8> data(14 + rng.NextBelow(120), 0);
    for (auto& b : data) {
      b = static_cast<u8>(rng.NextU64());
    }
    target.Inject(static_cast<u8>(rng.NextBelow(4)), Packet(std::move(data)));
  }
  target.Run(300'000);  // must terminate; garbage is dropped
  EXPECT_EQ(target.egress().size(), 0u);
  EXPECT_GT(service.dropped(), 0u);
}

// The text grammars on mutants of the inputs they really get: the checked-in
// scenario specs, the soaks' plans, CI's --slo clause sets, emu_lint
// suppressions and sample direction commands. A mutant flips a byte, swaps a
// digit for '-' or splices a long digit run into a number. Each must end in
// a value or a diagnostic that names its line (clause, for SLO), and every
// stage of a spec that parses must construct and instantiate.
std::string Mutate(Rng& rng, std::string text) {
  const u64 edits = 1 + rng.NextBelow(3);
  for (u64 e = 0; e < edits; ++e) {
    const usize at = rng.NextBelow(text.size());
    const usize digit = text.find_first_of("0123456789", at);
    switch (rng.NextBelow(3)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << rng.NextBelow(8)));
        break;
      case 1:
        if (digit != std::string::npos) {
          text[digit] = '-';
        }
        break;
      default: {
        std::string run(1 + rng.NextBelow(30), '9');
        for (char& c : run) {
          c = static_cast<char>('0' + rng.NextBelow(10));
        }
        text.insert(digit == std::string::npos ? at : digit, run);
      }
    }
  }
  return text;
}

TEST_P(ParserFuzz, TextGrammarsEndInAValueOrALineNumberedDiagnostic) {
  Rng rng(GetParam() + 4);
  std::vector<std::string> specs;
  for (const auto& file :
       std::filesystem::directory_iterator(std::string(EMU_TEST_SOURCE_DIR) + "/../specs")) {
    if (file.path().extension() == ".spec") {
      std::ifstream in(file.path());
      specs.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
  }
  ASSERT_GE(specs.size(), 2u);
  const std::vector<std::string> plans = {
      // gossip_soak's default plan.
      "crash host=h2 at=20ms; restart host=h2 at=120ms; "
      "partition {h0,h1}|{h3,h4} from=40ms to=70ms",
      // The shape of chaos_soak's per-seed plan.
      "ingress.drop bernoulli 0.0053; ingress.corrupt bernoulli 0.0071; "
      "ingress.dup bernoulli 0.0012; ingress.reorder bernoulli 0.0030; "
      "ingress.delay bernoulli 0.0100 17; nat.table_full burst 271802 418205 0.8; "
      "nat.flows bernoulli 0.00001; dns.table bernoulli 0.00001; "
      "memcached.queue* burst 271802 418205 0.0021 907; memcached.csum.fold oneshot 500000",
      // CI's emu_lint --faults plan, one entry per line with a comment.
      "ingress.drop bernoulli 0.05\n# queues stall mid-run\ningress.corrupt bernoulli 0.05\n"
      "nat.table_full burst 2000 8000 0.8\nmemcached.queue* burst 2000 8000 0.05 200\n"
      "memcached.csum.fold oneshot 4000\n"};
  const std::vector<std::string> slos = {
      "chain.source.rtt_us.p99 <= 10000; chain.loss_rate <= 0.10",
      "gossip.detection_latency_us.p99 <= 60000; gossip.violations_total <= 0; "
      "gossip.runs_total >= 1",
      "chaos.recovered >= 1; chaos.faults_fired >= 1; chaos.loss_rate <= 0.9"};
  const std::vector<std::string> suppressions = {
      "DEADSIGNAL:dbg_*,COMBRACE", "COMBLOOP, COMBRACE:a\n# wire ring\nMULTIDRIVEN:x"};
  const std::vector<std::string> commands = {
      "break main_loop if gets > 100", "trace start csum 8 if csum == 0",
      "watch x if x >= 3",             "count reads csum",
      "print csum",                    "unbreak main_loop"};

  usize stages_built = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string spec_text = Mutate(rng, specs[rng.NextBelow(specs.size())]);
    const Expected<ScenarioSpec> spec = ParseScenarioSpec(spec_text);
    if (!spec.ok()) {
      // A spec whose topology line is gone gets the one whole-spec diagnostic.
      const std::string& message = spec.status().message();
      EXPECT_TRUE(message.starts_with("scenario spec line ") ||
                  message == "scenario spec: missing topology line")
          << message;
    } else {
      for (const SpecStage& stage : spec->stages) {
        Expected<std::unique_ptr<Service>> service = MakeStageService(stage.kind, stage.attrs);
        if (service.ok()) {
          CpuTarget target(**service);
          ++stages_built;
        }
      }
    }

    const Expected<FaultPlan> plan =
        ParseFaultPlan(Mutate(rng, plans[rng.NextBelow(plans.size())]));
    if (!plan.ok()) {
      EXPECT_TRUE(plan.status().message().starts_with("fault plan line "))
          << plan.status().ToString();
    }

    const obs::SloParseResult slo =
        obs::ParseSloSpec(Mutate(rng, slos[rng.NextBelow(slos.size())]));
    if (!slo.ok) {
      EXPECT_TRUE(slo.error.starts_with("slo clause ")) << slo.error;
    }

    for (const Suppression& suppression :
         ParseSuppressions(Mutate(rng, suppressions[rng.NextBelow(suppressions.size())]))) {
      EXPECT_FALSE(suppression.check.empty());
    }

    const Expected<DirectionCommand> command =
        ParseDirectionCommand(Mutate(rng, commands[rng.NextBelow(commands.size())]));
    if (!command.ok()) {
      EXPECT_FALSE(command.status().message().empty());
    }
  }
  EXPECT_GT(stages_built, 0u);  // the slice reaches the factory, not only the parser
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(17u, 9001u));

// --- pcap reader fuzzing ------------------------------------------------------------

// Property: ReadPcap ends every mutant of a WritePcap capture in packets or a
// Status, and a packet it returns has a non-negative, whole-microsecond
// ingress time. The capture has three records, the last one stamped near the
// end of the picosecond range.
constexpr usize kPcapFileHeader = 24;
constexpr usize kPcapRecordHeader = 16;
const std::vector<usize> kPcapFrameSizes = {60, 14, 100};

std::vector<u8> PcapCapture(const std::string& path) {
  const Picoseconds times[] = {3 * kPicosPerMicro, 2'500'000 * kPicosPerMicro,
                               9'000'000 * kPicosPerSecond + 7 * kPicosPerMicro};
  TraceDump dump;
  for (usize i = 0; i < kPcapFrameSizes.size(); ++i) {
    Packet frame(kPcapFrameSizes[i]);
    for (usize b = 0; b < frame.size(); ++b) {
      frame[b] = static_cast<u8>(b + i);
    }
    dump.Capture(times[i], "tap", frame);
  }
  EXPECT_TRUE(dump.WritePcap(path));
  std::ifstream file(path, std::ios::binary);
  return std::vector<u8>(std::istreambuf_iterator<char>(file), {});
}

// Writes `bytes` to `path` and reads them back; true when they parse.
bool ReadsAsPacketsOrStatus(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  const Expected<std::vector<Packet>> read = ReadPcap(path);
  if (!read.ok()) {
    EXPECT_FALSE(read.status().message().empty());
    return false;
  }
  for (const Packet& packet : *read) {
    EXPECT_GE(packet.ingress_time(), 0);
    EXPECT_EQ(packet.ingress_time() % kPicosPerMicro, 0);
  }
  return true;
}

std::string PcapFuzzPath(const char* what) {
  return ::testing::TempDir() + "emu_pcap_fuzz_" + what + ".pcap";
}

TEST(PcapFuzz, ByteFlipsEndInPacketsOrAStatus) {
  const std::string path = PcapFuzzPath("flips");
  const std::vector<u8> capture = PcapCapture(path);
  ASSERT_TRUE(ReadsAsPacketsOrStatus(path, capture));
  for (const u64 seed : {17u, 9001u}) {
    Rng rng(seed);
    for (int round = 0; round < 300; ++round) {
      std::vector<u8> mutated = capture;
      for (u64 flips = 1 + rng.NextBelow(3); flips > 0; --flips) {
        mutated[rng.NextBelow(mutated.size())] ^= static_cast<u8>(1 + rng.NextBelow(255));
      }
      ReadsAsPacketsOrStatus(path, mutated);
    }
  }
}

// A prefix that ends on a record boundary is a shorter capture; any other
// cut, inside a header field or a frame, is an error.
TEST(PcapFuzz, TruncationAtEveryByteIsAShorterCaptureOrAStatus) {
  const std::string path = PcapFuzzPath("truncation");
  const std::vector<u8> capture = PcapCapture(path);
  std::vector<usize> boundaries = {kPcapFileHeader};
  for (const usize size : kPcapFrameSizes) {
    boundaries.push_back(boundaries.back() + kPcapRecordHeader + size);
  }
  ASSERT_EQ(boundaries.back(), capture.size());
  for (usize cut = 0; cut <= capture.size(); ++cut) {
    const bool boundary = std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
    EXPECT_EQ(ReadsAsPacketsOrStatus(path, std::vector<u8>(capture.begin(), capture.begin() + cut)),
              boundary)
        << "cut at byte " << cut;
  }
}

// Every 32-bit header field, file and record alike, set to 0 and to 2^32-1.
// A record's seconds or microseconds at 2^32-1 is out of range and rejected.
TEST(PcapFuzz, HeaderFieldsAtZeroAndAllOnesEndInPacketsOrAStatus) {
  const std::string path = PcapFuzzPath("fields");
  const std::vector<u8> capture = PcapCapture(path);
  std::vector<usize> fields;
  for (usize offset = 0; offset < kPcapFileHeader; offset += 4) {
    fields.push_back(offset);
  }
  std::vector<usize> stamps;  // each record's ts_sec and ts_usec offsets
  usize record = kPcapFileHeader;
  for (const usize size : kPcapFrameSizes) {
    for (usize offset = 0; offset < kPcapRecordHeader; offset += 4) {
      fields.push_back(record + offset);
    }
    stamps.insert(stamps.end(), {record, record + 4});
    record += kPcapRecordHeader + size;
  }
  for (const usize field : fields) {
    for (const u32 value : {0u, 0xffffffffu}) {
      std::vector<u8> mutated = capture;
      std::memcpy(mutated.data() + field, &value, sizeof(value));
      const bool parsed = ReadsAsPacketsOrStatus(path, mutated);
      if (value != 0 && std::find(stamps.begin(), stamps.end(), field) != stamps.end()) {
        EXPECT_FALSE(parsed) << "field at byte " << field;
      }
    }
  }
}

// --- Fault-layer frame fuzzing (emu-fault) -----------------------------------------

// The chaos layer corrupts frames with FrameImpairer::FlipBit/Truncate, so
// "corrupted by a fault" means exactly these mechanics. Every parser must
// treat such frames as adversarial input: parse or return an error, never
// crash or read past the end — and identically for identical seeds.

// Parses one corrupted application payload through every payload parser and
// folds the outcomes into the digest.
u64 ProbePayload(u64 digest, std::span<const u8> data) {
  digest = fnv::Mix(digest, ParseDnsQuery(data).ok());
  digest = fnv::Mix(digest, ParseDnsResponse(data).ok());
  digest = fnv::Mix(digest, ParseMcBinaryRequest(data).ok());
  digest = fnv::Mix(digest, ParseMcAsciiRequest(data).ok());
  return digest;
}

// Walks a corrupted frame through the L2-L4 views, touching every accessor a
// service would read; guards follow each view's Valid() contract, so any
// over-read is the view's bug (and a sanitizer finding).
u64 ProbeFrameViews(u64 digest, Packet& frame) {
  ArpView arp(frame);
  if (arp.Valid()) {
    digest = fnv::Mix(digest, arp.oper_raw());
    digest = fnv::Mix(digest, arp.sender_ip().value());
    digest = fnv::Mix(digest, arp.target_ip().value());
  }
  Ipv4View ip(frame);
  if (ip.Valid()) {
    digest = fnv::Mix(digest, ip.ChecksumValid());
    if (ip.ProtocolIs(IpProtocol::kTcp)) {
      TcpView tcp(frame, ip.payload_offset());
      if (tcp.Valid()) {
        digest = fnv::Mix(digest, tcp.source_port());
        digest = fnv::Mix(digest, tcp.destination_port());
        digest = fnv::Mix(digest, tcp.sequence());
      }
    } else if (ip.ProtocolIs(IpProtocol::kUdp)) {
      UdpView udp(frame, ip.payload_offset());
      if (udp.Valid()) {
        digest = fnv::Mix(digest, udp.destination_port());
      }
    }
  }
  return digest;
}

std::vector<std::vector<u8>> FaultFuzzPayloads() {
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "abc";
  set.value = "value";
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "abc";
  get.protocol = McProtocol::kAscii;
  return {BuildDnsQuery(7, "svc.lab"), BuildMcBinaryRequest(set), BuildMcAsciiRequest(get)};
}

std::vector<Packet> FaultFuzzFrames() {
  std::vector<Packet> frames;
  frames.push_back(MakeArpRequest(kMacA, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2)));
  TcpSegmentSpec tcp{kMacB, kMacA, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                     40000, 80, 1, 0, TcpFlags::kSyn};
  frames.push_back(MakeTcpSegment(tcp));
  frames.push_back(MakeUdpPacket({kMacB, kMacA, Ipv4Address(10, 0, 0, 1),
                                  Ipv4Address(10, 0, 0, 2), 5353, kDnsPort},
                                 BuildDnsQuery(7, "svc.lab")));
  return frames;
}

u64 RunFaultLayerFuzz(u64 seed) {
  Rng rng(seed);
  u64 digest = fnv::kOffset;
  const auto payloads = FaultFuzzPayloads();
  const auto frames = FaultFuzzFrames();
  for (int round = 0; round < 300; ++round) {
    Packet payload{std::vector<u8>(payloads[static_cast<usize>(round) % payloads.size()])};
    const usize flips = 1 + rng.NextBelow(4);
    for (usize i = 0; i < flips; ++i) {
      FrameImpairer::FlipBit(payload, rng.NextU64());
    }
    digest = ProbePayload(digest, payload.bytes());

    Packet frame = frames[static_cast<usize>(round) % frames.size()];
    for (usize i = 0; i < flips; ++i) {
      FrameImpairer::FlipBit(frame, rng.NextU64());
    }
    digest = ProbeFrameViews(digest, frame);
  }
  return digest;
}

class FaultFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(FaultFuzz, BitFlippedFramesNeverCrashAndReplayPerSeed) {
  const u64 first = RunFaultLayerFuzz(GetParam());
  EXPECT_EQ(first, RunFaultLayerFuzz(GetParam()));
  EXPECT_NE(first, RunFaultLayerFuzz(GetParam() + 1));
}

TEST_P(FaultFuzz, TruncationAtEveryByteBoundarySurvives) {
  // Every prefix of every valid message, and every combination with one bit
  // flip near the cut: parsers and views must degrade to errors.
  Rng rng(GetParam());
  for (const std::vector<u8>& payload : FaultFuzzPayloads()) {
    for (usize cut = 0; cut <= payload.size(); ++cut) {
      Packet p{std::vector<u8>(payload)};
      FrameImpairer::Truncate(p, cut);
      ASSERT_EQ(p.size(), cut);
      (void)ProbePayload(0, p.bytes());
      if (cut > 0) {
        FrameImpairer::FlipBit(p, rng.NextU64());
        (void)ProbePayload(0, p.bytes());
      }
    }
  }
  for (const Packet& frame : FaultFuzzFrames()) {
    for (usize cut = 0; cut <= frame.size(); ++cut) {
      Packet p = frame;
      FrameImpairer::Truncate(p, cut);
      (void)ProbeFrameViews(0, p);
    }
  }
}

TEST_P(FaultFuzz, CorruptedFramesThroughServicesNeverCrash) {
  // Same corruption mechanics end to end: a DNS service fed bit-flipped and
  // truncated queries must drop or answer, never wedge or crash.
  Rng rng(GetParam());
  DnsServiceConfig config;
  DnsService service(config);
  service.AddRecord("svc.lab", Ipv4Address(10, 1, 0, 1));
  FpgaTarget target(service);
  for (int round = 0; round < 80; ++round) {
    Packet frame = MakeUdpPacket({config.mac, kMacA, Ipv4Address(10, 0, 0, 9), config.ip,
                                  static_cast<u16>(5000 + round), kDnsPort},
                                 BuildDnsQuery(static_cast<u16>(round), "svc.lab"));
    if (rng.NextBool(0.5)) {
      FrameImpairer::FlipBit(frame, rng.NextU64());
    } else {
      FrameImpairer::Truncate(frame, rng.NextBelow(frame.size() + 1));
    }
    if (frame.size() >= kEthernetHeaderSize) {
      target.Inject(0, std::move(frame));
    }
  }
  target.Run(500'000);  // must terminate: every frame answered or dropped
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Values(23u, 4242u));

// --- Live backtrace of a stalled service -----------------------------------------------

TEST(LiveBacktrace, StalledRequestShowsHandlerFrame) {
  MemcachedConfig config;
  MemcachedService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  DirectedService directed(service, controller);
  FpgaTarget target(directed);

  // Install a breakpoint, then let a request stall inside the handler.
  controller.HandleCommandText("break main_loop");
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "k";
  get.protocol = config.protocol;
  Packet frame = MakeUdpPacket({config.mac, kMacA, Ipv4Address(10, 0, 0, 9), config.ip,
                                31000, kMemcachedPort},
                               BuildMcRequest(get));
  target.Inject(0, std::move(frame));
  target.Run(100'000);
  ASSERT_TRUE(controller.broken());

  // Backtrace over a direction packet shows where the program is parked.
  Packet bt = MakeDirectionPacket(config.mac, kMacB, DirectionPacketKind::kCommand, 1,
                                  "backtrace");
  auto reply = target.SendAndCollect(0, std::move(bt));
  ASSERT_TRUE(reply.ok());
  auto payload = ParseDirectionPacket(*reply);
  ASSERT_TRUE(payload.ok());
  EXPECT_NE(payload->text.find("#0 handle_request"), std::string::npos);

  // After resume the frame pops and the stack is empty again.
  controller.Resume();
  controller.HandleCommandText("unbreak main_loop");
  target.Run(200'000);
  EXPECT_EQ(controller.HandleCommandText("backtrace"), "(empty stack)\n");
}

}  // namespace
}  // namespace emu
