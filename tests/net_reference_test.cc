// Reference-model tests for the net layer's allocation-free paths and the IP
// blocks' word-wide models.
//
// The frame builders, the memcached codec, BitUtil's sub-byte accessors, the
// Pearson hash and the checksum, CAM and HashCAM blocks were first written the
// obvious way: builders that copied the payload once per layer, a tokenizer
// that grew a vector and builders that concatenated strings, bit-at-a-time
// field access, one pass over the key per hash lane, a checksum fed one byte
// at a time, a CAM lookup that scans every slot, and a HashCAM that hashes
// the key on every call. Those versions live on below as oracles. The library
// must agree with them byte for byte, status for status and hash for hash on
// seeded random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <string>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/rng.h"
#include "src/fault/fault_registry.h"
#include "src/hdl/simulator.h"
#include "src/ip/cam.h"
#include "src/ip/checksum_unit.h"
#include "src/ip/hash_cam.h"
#include "src/ip/pearson_hash.h"
#include "src/net/checksum.h"
#include "src/net/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/net/memcached.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"

namespace emu {
namespace {
namespace reference {

// --- BitUtil: one bit per iteration -------------------------------------------

u32 GetBits(std::span<const u8> buf, usize byte_offset, usize bit_offset, usize width) {
  u32 out = 0;
  for (usize i = 0; i < width; ++i) {
    const usize abs_bit = byte_offset * 8 + bit_offset + i;
    const u32 bit = (buf[abs_bit / 8] >> (7 - abs_bit % 8)) & 1u;
    out = (out << 1) | bit;
  }
  return out;
}

void SetBits(std::span<u8> buf, usize byte_offset, usize bit_offset, usize width, u32 value) {
  for (usize i = 0; i < width; ++i) {
    const usize abs_bit = byte_offset * 8 + bit_offset + i;
    const u8 mask = static_cast<u8>(1u << (7 - abs_bit % 8));
    if ((value >> (width - 1 - i)) & 1u) {
      buf[abs_bit / 8] |= mask;
    } else {
      buf[abs_bit / 8] &= static_cast<u8>(~mask);
    }
  }
}

// --- Pearson hash: one pass over the data per lane ------------------------------

u64 PearsonHash64(std::span<const u8> data) {
  if (data.empty()) {
    return 0;
  }
  const std::span<const u8> table = PearsonTable();
  u64 digest = 0;
  for (usize lane = 0; lane < 8; ++lane) {
    u8 h = table[static_cast<u8>(data[0] + lane)];
    for (usize i = 1; i < data.size(); ++i) {
      h = table[static_cast<u8>(h ^ data[i])];
    }
    digest |= static_cast<u64>(h) << (8 * lane);
  }
  return digest;
}

// --- Frame builders: each layer copies the payload behind its zeroed header ------

constexpr usize kL4Offset = kEthernetHeaderSize + kIpv4MinHeaderSize;

Packet MakeEthernetFrame(MacAddress dst, MacAddress src, EtherType type,
                         std::span<const u8> payload) {
  Packet packet(kEthernetHeaderSize);
  EthernetView eth(packet);
  eth.set_destination(dst);
  eth.set_source(src);
  eth.set_ether_type(type);
  packet.Append(payload);
  if (packet.size() < kEthernetMinFrame) {
    packet.Resize(kEthernetMinFrame);
  }
  return packet;
}

Packet MakeIpv4Packet(const Ipv4PacketSpec& spec, std::span<const u8> l4_payload) {
  std::vector<u8> ip_packet(kIpv4MinHeaderSize, 0);
  ip_packet.insert(ip_packet.end(), l4_payload.begin(), l4_payload.end());
  Packet frame =
      reference::MakeEthernetFrame(spec.eth_dst, spec.eth_src, EtherType::kIpv4, ip_packet);
  Ipv4View ip(frame);
  SetBits(frame.bytes(), kEthernetHeaderSize, 0, 4, 4);
  SetBits(frame.bytes(), kEthernetHeaderSize, 4, 4, 5);
  ip.set_total_length(static_cast<u16>(kIpv4MinHeaderSize + l4_payload.size()));
  ip.set_identification(spec.identification);
  ip.set_ttl(spec.ttl);
  ip.set_protocol(spec.protocol);
  ip.set_source(spec.ip_src);
  ip.set_destination(spec.ip_dst);
  ip.set_header_checksum(0);
  ip.set_header_checksum(InternetChecksum(frame.View(kEthernetHeaderSize, kIpv4MinHeaderSize)));
  return frame;
}

Ipv4PacketSpec L4Spec(MacAddress eth_dst, MacAddress eth_src, Ipv4Address ip_src,
                      Ipv4Address ip_dst, IpProtocol protocol) {
  Ipv4PacketSpec spec;
  spec.eth_dst = eth_dst;
  spec.eth_src = eth_src;
  spec.ip_src = ip_src;
  spec.ip_dst = ip_dst;
  spec.protocol = protocol;
  return spec;
}

Packet MakeUdpPacket(const UdpPacketSpec& spec, std::span<const u8> payload) {
  std::vector<u8> udp(kUdpHeaderSize, 0);
  udp.insert(udp.end(), payload.begin(), payload.end());
  Packet frame = reference::MakeIpv4Packet(
      L4Spec(spec.eth_dst, spec.eth_src, spec.ip_src, spec.ip_dst, IpProtocol::kUdp), udp);
  Ipv4View ip(frame);
  UdpView view(frame, kL4Offset);
  view.set_source_port(spec.src_port);
  view.set_destination_port(spec.dst_port);
  view.set_length(static_cast<u16>(kUdpHeaderSize + payload.size()));
  view.UpdateChecksum(ip);
  return frame;
}

Packet MakeTcpSegment(const TcpSegmentSpec& spec, std::span<const u8> payload) {
  std::vector<u8> tcp(kTcpMinHeaderSize, 0);
  tcp.insert(tcp.end(), payload.begin(), payload.end());
  Packet frame = reference::MakeIpv4Packet(
      L4Spec(spec.eth_dst, spec.eth_src, spec.ip_src, spec.ip_dst, IpProtocol::kTcp), tcp);
  Ipv4View ip(frame);
  TcpView view(frame, kL4Offset);
  view.set_source_port(spec.src_port);
  view.set_destination_port(spec.dst_port);
  view.set_sequence(spec.seq);
  view.set_ack_number(spec.ack);
  SetBits(frame.bytes(), kL4Offset + 12, 0, 4, 5);
  view.set_flags(spec.flags);
  view.set_window(spec.window);
  view.UpdateChecksum(ip, kTcpMinHeaderSize + payload.size());
  return frame;
}

Packet MakeIcmpEchoRequest(const IcmpEchoSpec& spec, std::span<const u8> payload) {
  std::vector<u8> icmp(kIcmpHeaderSize, 0);
  icmp.insert(icmp.end(), payload.begin(), payload.end());
  Packet frame = reference::MakeIpv4Packet(
      L4Spec(spec.eth_dst, spec.eth_src, spec.ip_src, spec.ip_dst, IpProtocol::kIcmp), icmp);
  IcmpView view(frame, kL4Offset);
  view.set_type(IcmpType::kEchoRequest);
  view.set_code(0);
  view.set_identifier(spec.identifier);
  view.set_sequence(spec.sequence);
  view.UpdateChecksum(kIcmpHeaderSize + payload.size());
  return frame;
}

// --- Memcached codec: vector tokenizer, string concatenation ---------------------

void AppendText(std::vector<u8>& out, std::string_view text) {
  out.insert(out.end(), text.begin(), text.end());
}

std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  usize pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    const usize start = pos;
    while (pos < line.size() && line[pos] != ' ') {
      ++pos;
    }
    if (pos > start) {
      tokens.push_back(line.substr(start, pos - start));
    }
  }
  return tokens;
}

// Digits only, and at most `max`: a flags or exptime field holds 32 bits.
Expected<u64> ParseU64(std::string_view text, u64 max = ~u64{0}) {
  if (text.empty()) {
    return InvalidArgument("empty number");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgument("non-digit in number");
    }
  }
  u64 value = 0;
  const auto parsed = std::from_chars(text.data(), text.data() + text.size(), value);
  if (parsed.ec != std::errc() || value > max) {
    return InvalidArgument("number out of range");
  }
  return value;
}

usize FindCrlf(std::span<const u8> data) {
  for (usize i = 0; i + 1 < data.size(); ++i) {
    if (data[i] == '\r' && data[i + 1] == '\n') {
      return i;
    }
  }
  return static_cast<usize>(-1);
}

std::string_view LineView(std::span<const u8> data, usize end) {
  return std::string_view(reinterpret_cast<const char*>(data.data()), end);
}

std::vector<u8> BuildMcAsciiRequest(const McRequest& request) {
  std::vector<u8> out;
  switch (request.op) {
    case McOpcode::kGet:
      AppendText(out, "get ");
      AppendText(out, request.key);
      AppendText(out, "\r\n");
      break;
    case McOpcode::kSet:
      AppendText(out, "set " + request.key + " " + std::to_string(request.flags) + " " +
                          std::to_string(request.expiry) + " " +
                          std::to_string(request.value.size()) + "\r\n");
      AppendText(out, request.value);
      AppendText(out, "\r\n");
      break;
    case McOpcode::kDelete:
      AppendText(out, "delete ");
      AppendText(out, request.key);
      AppendText(out, "\r\n");
      break;
  }
  return out;
}

Expected<McRequest> ParseMcAsciiRequest(std::span<const u8> data) {
  const usize eol = FindCrlf(data);
  if (eol == static_cast<usize>(-1)) {
    return MalformedPacket("missing CRLF");
  }
  const auto tokens = Tokenize(LineView(data, eol));
  if (tokens.empty()) {
    return MalformedPacket("empty command");
  }
  McRequest request;
  request.protocol = McProtocol::kAscii;
  if (tokens[0] == "get" || tokens[0] == "delete") {
    if (tokens.size() != 2) {
      return MalformedPacket("expects one key");
    }
    request.op = tokens[0] == "get" ? McOpcode::kGet : McOpcode::kDelete;
    request.key = std::string(tokens[1]);
    return request;
  }
  if (tokens[0] == "set") {
    if (tokens.size() != 5) {
      return MalformedPacket("set expects key flags exptime bytes");
    }
    request.op = McOpcode::kSet;
    request.key = std::string(tokens[1]);
    auto flags = ParseU64(tokens[2], 0xffffffff);
    auto expiry = ParseU64(tokens[3], 0xffffffff);
    auto bytes = ParseU64(tokens[4]);
    if (!flags.ok() || !expiry.ok() || !bytes.ok()) {
      return MalformedPacket("bad numeric field in set");
    }
    request.flags = static_cast<u32>(*flags);
    request.expiry = static_cast<u32>(*expiry);
    const usize value_start = eol + 2;
    if (data.size() < value_start + *bytes + 2) {
      return MalformedPacket("set data block truncated");
    }
    request.value.assign(reinterpret_cast<const char*>(&data[value_start]), *bytes);
    return request;
  }
  return UnsupportedProtocol("unknown ASCII command");
}

std::vector<u8> BuildMcAsciiResponse(const McResponse& response) {
  std::vector<u8> out;
  switch (response.op) {
    case McOpcode::kGet:
      if (response.status == McStatus::kNoError) {
        AppendText(out, "VALUE " + response.key + " " + std::to_string(response.flags) + " " +
                            std::to_string(response.value.size()) + "\r\n");
        AppendText(out, response.value);
        AppendText(out, "\r\n");
      }
      AppendText(out, "END\r\n");
      break;
    case McOpcode::kSet:
      AppendText(out, response.status == McStatus::kNoError ? "STORED\r\n" : "NOT_STORED\r\n");
      break;
    case McOpcode::kDelete:
      AppendText(out,
                 response.status == McStatus::kNoError ? "DELETED\r\n" : "NOT_FOUND\r\n");
      break;
  }
  return out;
}

Expected<McResponse> ParseMcAsciiResponse(std::span<const u8> data) {
  const usize eol = FindCrlf(data);
  if (eol == static_cast<usize>(-1)) {
    return MalformedPacket("missing CRLF");
  }
  const auto tokens = Tokenize(LineView(data, eol));
  if (tokens.empty()) {
    return MalformedPacket("empty response");
  }
  McResponse response;
  response.protocol = McProtocol::kAscii;
  if (tokens[0] == "END") {
    response.op = McOpcode::kGet;
    response.status = McStatus::kKeyNotFound;
    return response;
  }
  if (tokens[0] == "VALUE") {
    if (tokens.size() != 4) {
      return MalformedPacket("VALUE expects key flags bytes");
    }
    response.op = McOpcode::kGet;
    response.key = std::string(tokens[1]);
    auto flags = ParseU64(tokens[2], 0xffffffff);
    auto bytes = ParseU64(tokens[3]);
    if (!flags.ok() || !bytes.ok()) {
      return MalformedPacket("bad numeric field in VALUE");
    }
    response.flags = static_cast<u32>(*flags);
    const usize value_start = eol + 2;
    if (data.size() < value_start + *bytes + 2) {
      return MalformedPacket("VALUE data truncated");
    }
    response.value.assign(reinterpret_cast<const char*>(&data[value_start]), *bytes);
    return response;
  }
  if (tokens[0] == "STORED" || tokens[0] == "NOT_STORED") {
    response.op = McOpcode::kSet;
    response.status = tokens[0] == "STORED" ? McStatus::kNoError : McStatus::kNotStored;
    return response;
  }
  if (tokens[0] == "DELETED" || tokens[0] == "NOT_FOUND") {
    response.op = McOpcode::kDelete;
    response.status = tokens[0] == "DELETED" ? McStatus::kNoError : McStatus::kKeyNotFound;
    return response;
  }
  return UnsupportedProtocol("unknown ASCII response");
}

std::vector<u8> BuildMcBinaryResponse(const McResponse& response) {
  const bool get_hit = response.op == McOpcode::kGet && response.status == McStatus::kNoError;
  const usize extras = get_hit ? 4 : 0;
  const usize body = extras + (get_hit ? response.value.size() : 0);
  std::vector<u8> out(kMcBinaryHeaderSize + body, 0);
  out[0] = 0x81;
  out[1] = static_cast<u8>(response.op);
  out[4] = static_cast<u8>(extras);
  BitUtil::Set16(out, 6, static_cast<u16>(response.status));
  BitUtil::Set32(out, 8, static_cast<u32>(body));
  BitUtil::Set32(out, 12, response.opaque);
  usize pos = kMcBinaryHeaderSize;
  if (get_hit) {
    BitUtil::Set32(out, pos, response.flags);
    pos += 4;
    for (char c : response.value) {
      out[pos++] = static_cast<u8>(c);
    }
  }
  return out;
}

}  // namespace reference

// --- Random inputs ----------------------------------------------------------------

std::vector<u8> RandomBytes(Rng& rng, usize size) {
  std::vector<u8> out(size);
  for (u8& byte : out) {
    byte = static_cast<u8>(rng.NextU64());
  }
  return out;
}

// Printable, no space: one ASCII token.
std::string RandomToken(Rng& rng, usize size) {
  std::string out(size, 'x');
  for (char& c : out) {
    c = static_cast<char>(rng.NextInRange('!', '~'));
  }
  return out;
}

MacAddress RandomMac(Rng& rng) { return MacAddress::FromU48(rng.NextU64() & 0xffff'ffff'ffffULL); }
Ipv4Address RandomIp(Rng& rng) { return Ipv4Address(static_cast<u32>(rng.NextU64())); }

// Half the payloads sit around the 60-byte padding edge of every layer, the
// rest anywhere up to a full 1,500-byte MTU.
usize RandomPayloadSize(Rng& rng) {
  return rng.NextBool(0.5) ? rng.NextBelow(81) : rng.NextBelow(1501);
}

void ExpectSameFrame(const Packet& actual, const Packet& expected, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  ASSERT_TRUE(std::ranges::equal(actual.bytes(), expected.bytes())) << what;
}

TEST(NetReference, FrameBuildersMatchLayeredCopies) {
  Rng rng(0xf7a3e);
  usize padded = 0;
  usize unpadded = 0;
  for (usize round = 0; round < 2'000; ++round) {
    const std::vector<u8> payload = RandomBytes(rng, RandomPayloadSize(rng));
    const std::string what = "round " + std::to_string(round) + ", payload " +
                             std::to_string(payload.size()) + " B";
    const MacAddress dst = RandomMac(rng);
    const MacAddress src = RandomMac(rng);
    const Ipv4Address ip_src = RandomIp(rng);
    const Ipv4Address ip_dst = RandomIp(rng);

    const auto type = static_cast<EtherType>(rng.NextBelow(0x10000));
    const Packet eth = MakeEthernetFrame(dst, src, type, payload);
    ExpectSameFrame(eth, reference::MakeEthernetFrame(dst, src, type, payload), what);
    (eth.size() == kEthernetMinFrame ? padded : unpadded) += 1;

    Ipv4PacketSpec ip_spec;
    ip_spec.eth_dst = dst;
    ip_spec.eth_src = src;
    ip_spec.ip_src = ip_src;
    ip_spec.ip_dst = ip_dst;
    ip_spec.protocol = static_cast<IpProtocol>(rng.NextBelow(256));
    ip_spec.ttl = static_cast<u8>(rng.NextBelow(256));
    ip_spec.identification = static_cast<u16>(rng.NextU64());
    ExpectSameFrame(MakeIpv4Packet(ip_spec, payload),
                    reference::MakeIpv4Packet(ip_spec, payload), what);

    const UdpPacketSpec udp{dst, src, ip_src, ip_dst, static_cast<u16>(rng.NextU64()),
                            static_cast<u16>(rng.NextU64())};
    ExpectSameFrame(MakeUdpPacket(udp, payload), reference::MakeUdpPacket(udp, payload), what);

    TcpSegmentSpec tcp{dst, src, ip_src, ip_dst};
    tcp.src_port = static_cast<u16>(rng.NextU64());
    tcp.dst_port = static_cast<u16>(rng.NextU64());
    tcp.seq = static_cast<u32>(rng.NextU64());
    tcp.ack = static_cast<u32>(rng.NextU64());
    tcp.flags = static_cast<u8>(rng.NextU64());
    tcp.window = static_cast<u16>(rng.NextU64());
    ExpectSameFrame(MakeTcpSegment(tcp, payload), reference::MakeTcpSegment(tcp, payload), what);

    const IcmpEchoSpec icmp{dst, src, ip_src, ip_dst, static_cast<u16>(rng.NextU64()),
                            static_cast<u16>(rng.NextU64())};
    ExpectSameFrame(MakeIcmpEchoRequest(icmp, payload),
                    reference::MakeIcmpEchoRequest(icmp, payload), what);
    if (HasFatalFailure()) {
      return;
    }
  }
  // Both sides of the Ethernet padding edge were exercised.
  EXPECT_GT(padded, 100u);
  EXPECT_GT(unpadded, 100u);
}

McRequest RandomRequest(Rng& rng, McProtocol protocol) {
  McRequest request;
  request.protocol = protocol;
  request.op = std::array{McOpcode::kGet, McOpcode::kSet, McOpcode::kDelete}[rng.NextBelow(3)];
  request.key = RandomToken(rng, rng.NextInRange(1, 250));
  if (request.op == McOpcode::kSet) {
    const std::vector<u8> value = RandomBytes(rng, rng.NextBelow(65));
    request.value.assign(value.begin(), value.end());
    request.flags = static_cast<u32>(rng.NextU64());
    request.expiry = static_cast<u32>(rng.NextU64());
  }
  request.opaque = static_cast<u32>(rng.NextU64());
  return request;
}

McResponse RandomResponse(Rng& rng, McProtocol protocol) {
  McResponse response;
  response.protocol = protocol;
  response.op = std::array{McOpcode::kGet, McOpcode::kSet, McOpcode::kDelete}[rng.NextBelow(3)];
  response.status = std::array{McStatus::kNoError, McStatus::kKeyNotFound,
                               McStatus::kNotStored}[rng.NextBelow(3)];
  response.key = RandomToken(rng, rng.NextInRange(1, 250));
  const std::vector<u8> value = RandomBytes(rng, rng.NextBelow(300));
  response.value.assign(value.begin(), value.end());
  response.flags = static_cast<u32>(rng.NextU64());
  response.opaque = static_cast<u32>(rng.NextU64());
  return response;
}

void ExpectSameRequest(const Expected<McRequest>& actual, const Expected<McRequest>& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.ok(), expected.ok()) << what;
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << what;
    return;
  }
  EXPECT_EQ(actual->protocol, expected->protocol) << what;
  EXPECT_EQ(actual->op, expected->op) << what;
  EXPECT_EQ(actual->key, expected->key) << what;
  EXPECT_EQ(actual->value, expected->value) << what;
  EXPECT_EQ(actual->flags, expected->flags) << what;
  EXPECT_EQ(actual->expiry, expected->expiry) << what;
  EXPECT_EQ(actual->opaque, expected->opaque) << what;
}

void ExpectSameResponse(const Expected<McResponse>& actual,
                        const Expected<McResponse>& expected, const std::string& what) {
  ASSERT_EQ(actual.ok(), expected.ok()) << what;
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code()) << what;
    return;
  }
  EXPECT_EQ(actual->protocol, expected->protocol) << what;
  EXPECT_EQ(actual->op, expected->op) << what;
  EXPECT_EQ(actual->status, expected->status) << what;
  EXPECT_EQ(actual->key, expected->key) << what;
  EXPECT_EQ(actual->value, expected->value) << what;
  EXPECT_EQ(actual->flags, expected->flags) << what;
  EXPECT_EQ(actual->opaque, expected->opaque) << what;
}

// Both parsers, new and reference, on the same bytes.
void ExpectSameParse(std::span<const u8> data, const std::string& what) {
  ExpectSameRequest(ParseMcAsciiRequest(data), reference::ParseMcAsciiRequest(data), what);
  ExpectSameResponse(ParseMcAsciiResponse(data), reference::ParseMcAsciiResponse(data), what);
}

std::span<const u8> Bytes(std::string_view text) {
  return std::span<const u8>(reinterpret_cast<const u8*>(text.data()), text.size());
}

TEST(NetReference, McBuildersMatchConcatenation) {
  Rng rng(0xc0dec);
  for (usize round = 0; round < 3'000; ++round) {
    const std::string what = "round " + std::to_string(round);
    const McProtocol protocol = rng.NextBool(0.5) ? McProtocol::kAscii : McProtocol::kBinary;

    const McRequest request = RandomRequest(rng, protocol);
    const std::vector<u8> request_wire = BuildMcRequest(request);
    if (protocol == McProtocol::kAscii) {
      ASSERT_EQ(request_wire, reference::BuildMcAsciiRequest(request)) << what;
      ExpectSameParse(request_wire, what);
    }

    const McResponse response = RandomResponse(rng, protocol);
    const std::vector<u8> wire = BuildMcResponse(response);
    ASSERT_EQ(wire, protocol == McProtocol::kAscii ? reference::BuildMcAsciiResponse(response)
                                                   : reference::BuildMcBinaryResponse(response))
        << what;
    // In place, over the bytes of whatever frame held the request, which
    // may be longer or shorter than the reply.
    const usize offset = rng.NextBelow(50);
    const std::vector<u8> held = RandomBytes(rng, offset + rng.NextBelow(2 * wire.size() + 1));
    Packet in_place(held);
    ASSERT_EQ(WriteMcResponse(response, in_place, offset), wire.size()) << what;
    ASSERT_EQ(in_place.size(), offset + wire.size()) << what;
    ASSERT_TRUE(std::ranges::equal(in_place.View(0, offset),
                                   std::span<const u8>(held).first(offset)))
        << what;
    ASSERT_TRUE(std::ranges::equal(in_place.View(offset, wire.size()), wire)) << what;
    if (protocol == McProtocol::kAscii) {
      ExpectSameParse(wire, what);
    }
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Lines of 0-10 tokens drawn from the commands, replies, numbers and junk,
// with odd spacing, a missing CRLF now and then, and a data block that may
// fall short of (or run past) the byte count the line declares.
std::string RandomAsciiMessage(Rng& rng) {
  static constexpr std::array<std::string_view, 12> kWords = {
      "get", "set", "delete", "VALUE", "END", "STORED",
      "NOT_STORED", "DELETED", "NOT_FOUND", "gets", "SET", "value"};
  std::string line(rng.NextBelow(3), ' ');
  const usize tokens = rng.NextBelow(11);
  for (usize i = 0; i < tokens; ++i) {
    if (i > 0) {
      line.append(rng.NextInRange(1, 3), ' ');
    }
    // Mostly the shape of a real line: a word, a key, then numbers.
    const usize likely = i == 0 ? 0 : (i == 1 ? 2 : 1);
    switch (rng.NextBelow(4) != 0 ? likely : rng.NextBelow(4)) {
      case 0:
        line += kWords[rng.NextBelow(kWords.size())];
        break;
      case 1:
        line += std::to_string(rng.NextBelow(rng.NextBool(0.8) ? 24 : 100'000));
        break;
      case 2:
        line += RandomToken(rng, rng.NextInRange(1, 20));
        break;
      default:
        line += std::to_string(rng.NextBelow(100)) + "x";
        break;
    }
  }
  line.append(rng.NextBelow(2), ' ');
  if (rng.NextBelow(10) != 0) {
    line += "\r\n";
  }
  const std::vector<u8> block = RandomBytes(rng, rng.NextBelow(24));
  line.append(block.begin(), block.end());
  if (rng.NextBool(0.5)) {
    line += "\r\n";
  }
  return line;
}

TEST(NetReference, McAsciiParsersMatchVectorTokenizer) {
  // Empty lines, token counts on both sides of the tokenizer's five slots
  // (where only the count can reject a line), and short data blocks.
  const std::vector<std::string> edges = {
      "",
      "\r\n",
      "   \r\n",
      "get\r\n",
      "get a\r\n",
      "get a b\r\n",
      "get a b c d e f g\r\n",
      "delete a b c d e f g h i\r\n",
      "set k 0 0 1\r\nv\r\n",
      "set k 0 0 1 x\r\nv\r\n",
      "set k 0 0 1 x y z w\r\nv\r\n",
      "set k 0 0\r\nv\r\n",
      "set k 0 0 3\r\nv\r\n",
      "VALUE k 0 1\r\nv\r\nEND\r\n",
      "VALUE k 0 1 x\r\nv\r\nEND\r\n",
      "VALUE k 0 1 x y z\r\nv\r\nEND\r\n",
      "VALUE k 0\r\nv\r\nEND\r\n",
      "END extra tokens do not matter\r\n",
      "STORED\r\n",
      "NOT_FOUND x y z w v u\r\n",
  };
  for (const std::string& edge : edges) {
    ExpectSameParse(Bytes(edge), "edge case '" + edge + "'");
  }
  Rng rng(0x70c3a);
  usize accepted = 0;
  for (usize round = 0; round < 20'000; ++round) {
    const std::string message = RandomAsciiMessage(rng);
    // And a random prefix of it: a line or data block cut short anywhere.
    const usize cut = rng.NextBelow(message.size() + 1);
    ExpectSameParse(Bytes(message), "message '" + message + "'");
    ExpectSameParse(Bytes(message).first(cut), "prefix '" + message.substr(0, cut) + "'");
    accepted += ParseMcAsciiRequest(Bytes(message)).ok() ? 1 : 0;
    accepted += ParseMcAsciiResponse(Bytes(message)).ok() ? 1 : 0;
    if (HasFatalFailure()) {
      return;
    }
  }
  // The generator reaches the accepting paths, not only the rejections.
  EXPECT_GT(accepted, 1'000u);
}

TEST(NetReference, BitFieldsMatchBitAtATime) {
  Rng rng(0xb17);
  for (usize byte_offset = 0; byte_offset < 16; ++byte_offset) {
    for (usize bit_offset = 0; bit_offset < 16; ++bit_offset) {
      for (usize width = 1; width <= 32; ++width) {
        if ((byte_offset * 8 + bit_offset + width + 7) / 8 > 16) {
          continue;
        }
        const std::string what = "byte " + std::to_string(byte_offset) + " bit " +
                                 std::to_string(bit_offset) + " width " + std::to_string(width);
        std::vector<u8> buf = RandomBytes(rng, 16);
        ASSERT_EQ(BitUtil::GetBits(buf, byte_offset, bit_offset, width),
                  reference::GetBits(buf, byte_offset, bit_offset, width))
            << what;
        const u32 value = static_cast<u32>(rng.NextU64());
        std::vector<u8> expected = buf;
        reference::SetBits(expected, byte_offset, bit_offset, width, value);
        BitUtil::SetBits(buf, byte_offset, bit_offset, width, value);
        ASSERT_EQ(buf, expected) << what;
      }
    }
  }
}

TEST(NetReference, PearsonLanesMatchOnePassPerLane) {
  Rng rng(0x9ea5);
  for (usize round = 0; round < 2'000; ++round) {
    const std::vector<u8> key = RandomBytes(rng, rng.NextInRange(1, 250));
    ASSERT_EQ(PearsonHash64(key), reference::PearsonHash64(key)) << "key of " << key.size();
    const u64 word = rng.NextU64();
    std::array<u8, 8> word_bytes{};
    for (usize i = 0; i < 8; ++i) {
      word_bytes[i] = static_cast<u8>(word >> (8 * i));
    }
    ASSERT_EQ(PearsonHash64(word), reference::PearsonHash64(word_bytes)) << word;
  }
}

// --- IP blocks: byte-at-a-time checksum, scanning CAM, per-call HashCAM -----------

namespace reference {

class ChecksumUnit {
 public:
  void AddByte(u8 byte) {
    sum_ += high_byte_ ? u64{byte} << 8 : u64{byte};
    high_byte_ = !high_byte_;
  }
  void AddBytes(std::span<const u8> data) {
    for (const u8 byte : data) {
      AddByte(byte);
    }
  }
  void Add16(u16 value) {
    AddByte(static_cast<u8>(value >> 8));
    AddByte(static_cast<u8>(value));
  }
  void Add32(u32 value) {
    Add16(static_cast<u16>(value >> 16));
    Add16(static_cast<u16>(value));
  }
  u16 Result(bool skip_fold) const {
    u64 sum = sum_;
    while (!skip_fold && sum >> 16) {
      sum = (sum & 0xffff) + (sum >> 16);
    }
    return static_cast<u16>(~sum & 0xffff);
  }

 private:
  u64 sum_ = 0;
  bool high_byte_ = true;
};

class Cam {
 public:
  Cam(usize entries, usize key_bits)
      : key_bits_(key_bits),
        key_mask_(key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits) - 1),
        slots_(entries) {}

  CamLookupResult Lookup(u64 key) const {
    for (usize i = 0; i < slots_.size(); ++i) {
      if (slots_[i].valid && slots_[i].key == (key & key_mask_)) {
        return CamLookupResult{true, slots_[i].value, i};
      }
    }
    return CamLookupResult{};
  }
  void Write(usize index, u64 key, u64 value) {
    pending_.push_back({index, Slot{true, key & key_mask_, value}});
  }
  void Invalidate(usize index) { pending_.push_back({index, Slot{}}); }
  void Commit() {
    for (const auto& [index, slot] : pending_) {
      slots_[index] = slot;
    }
    pending_.clear();
  }
  void InjectBitFlip(u64 bit) {
    const usize slot_bits = 1 + key_bits_;
    Slot& slot = slots_[static_cast<usize>(bit / slot_bits) % slots_.size()];
    const usize in_slot = static_cast<usize>(bit % slot_bits);
    if (in_slot == 0) {
      slot.valid = !slot.valid;
    } else {
      slot.key = (slot.key ^ (u64{1} << (in_slot - 1))) & key_mask_;
    }
  }

 private:
  struct Slot {
    bool valid = false;
    u64 key = 0;
    u64 value = 0;
  };
  usize key_bits_;
  u64 key_mask_;
  std::vector<Slot> slots_;
  std::vector<std::pair<usize, Slot>> pending_;
};

// Hashes the key again for every probe of every call.
class HashCam {
 public:
  explicit HashCam(usize buckets) : table_(buckets) {}

  bool matched() const { return matched_; }
  const std::vector<emu::HashCam::Bucket>& table() const { return table_; }

  u64 Read(u64 key) {
    for (usize probe = 0; probe < emu::HashCam::kProbeLimit; ++probe) {
      const emu::HashCam::Bucket& bucket = table_[Slot(key, probe)];
      if (bucket.valid && bucket.key == key) {
        matched_ = true;
        return bucket.index;
      }
    }
    matched_ = false;
    return 0;
  }
  bool Write(u64 key, u64 index) {
    for (usize probe = 0; probe < emu::HashCam::kProbeLimit; ++probe) {
      emu::HashCam::Bucket& bucket = table_[Slot(key, probe)];
      if (bucket.valid && bucket.key == key) {
        bucket.index = index;
        return true;
      }
    }
    for (usize probe = 0; probe < emu::HashCam::kProbeLimit; ++probe) {
      emu::HashCam::Bucket& bucket = table_[Slot(key, probe)];
      if (!bucket.valid) {
        bucket = emu::HashCam::Bucket{true, key, index};
        return true;
      }
    }
    return false;
  }
  void Erase(u64 key) {
    for (usize probe = 0; probe < emu::HashCam::kProbeLimit; ++probe) {
      emu::HashCam::Bucket& bucket = table_[Slot(key, probe)];
      if (bucket.valid && bucket.key == key) {
        bucket.valid = false;
        return;
      }
    }
  }
  void InjectBitFlip(u64 bit) {
    emu::HashCam::Bucket& bucket = table_[static_cast<usize>(bit / 65) % table_.size()];
    const usize in_bucket = static_cast<usize>(bit % 65);
    if (in_bucket == 0) {
      bucket.valid = !bucket.valid;
    } else {
      bucket.key ^= u64{1} << (in_bucket - 1);
    }
  }

 private:
  usize Slot(u64 key, usize probe) const {
    return (static_cast<usize>(emu::PearsonHash64(key)) + probe) & (table_.size() - 1);
  }

  std::vector<emu::HashCam::Bucket> table_;
  bool matched_ = false;
};

}  // namespace reference

// Spans of 0-1,500 B cut into pieces at random (mostly odd) offsets and fed
// through AddBytes, AddByte, Add16 and Add32, with the §5.5 fold bug and the
// plan-driven fold fault each on and off.
TEST(NetReference, ChecksumWordsMatchByteAtATime) {
  Rng rng(0xc5a);
  Simulator sim;
  FaultRegistry registry(11);
  ChecksumUnit unit(sim, "csum");
  unit.AttachFault(registry, "csum");
  for (usize round = 0; round < 2'000; ++round) {
    const bool fold_bug = rng.NextBool(0.5);
    const bool fold_fault = rng.NextBool(0.5);
    unit.InjectFoldBug(fold_bug);
    registry.DisarmAll();
    if (fold_fault) {
      registry.Arm("csum.fold", FaultSchedule::Bernoulli(1.0));
    }
    const std::vector<u8> data = RandomBytes(rng, rng.NextInRange(0, 1'500));
    const std::span<const u8> bytes(data);
    reference::ChecksumUnit expected;
    unit.Reset();
    usize pos = 0;
    while (pos < data.size()) {
      const usize left = data.size() - pos;
      switch (rng.NextBelow(4)) {
        case 0:
          expected.AddByte(data[pos]);
          unit.AddByte(data[pos]);
          pos += 1;
          break;
        case 1:
          if (left >= 2) {
            const u16 value = BitUtil::Get16(bytes, pos);
            expected.Add16(value);
            unit.Add16(value);
            pos += 2;
          }
          break;
        case 2:
          if (left >= 4) {
            const u32 value = BitUtil::Get32(bytes, pos);
            expected.Add32(value);
            unit.Add32(value);
            pos += 4;
          }
          break;
        default: {
          const usize length = std::min<usize>(left, rng.NextInRange(0, 700));
          expected.AddBytes(bytes.subspan(pos, length));
          unit.AddBytes(bytes.subspan(pos, length));
          pos += length;
          break;
        }
      }
      ASSERT_EQ(unit.Result(), expected.Result(fold_bug || fold_fault))
          << "round " << round << ", " << pos << " of " << data.size() << " bytes";
    }
    ASSERT_EQ(unit.Result(), expected.Result(fold_bug || fold_fault)) << "round " << round;
  }
  EXPECT_GT(registry.fired_total(), 0u);
}

// Duplicate keys (a small key space, or a few wide keys) and bit flips that
// move, drop and resurrect entries: every lookup agrees on hit, value and
// the lowest matching index.
TEST(NetReference, CamIndexMatchesLinearScan) {
  struct Shape {
    usize entries;
    usize key_bits;
  };
  for (const Shape shape : {Shape{32, 4}, Shape{64, 48}, Shape{16, 64}}) {
    Rng rng(0xca11 + shape.key_bits);
    Simulator sim;
    Cam cam(sim, "cam", shape.entries, shape.key_bits, 8);
    reference::Cam expected(shape.entries, shape.key_bits);
    std::vector<u64> keys(12);
    for (u64& key : keys) {
      key = rng.NextU64();
    }
    usize hits = 0;
    for (usize step = 0; step < 20'000; ++step) {
      const std::string what = "entries " + std::to_string(shape.entries) + " key_bits " +
                               std::to_string(shape.key_bits) + " step " +
                               std::to_string(step);
      switch (rng.NextBelow(6)) {
        case 0:
        case 1: {
          const usize index = rng.NextBelow(shape.entries);
          const u64 key = keys[rng.NextBelow(keys.size())];
          const u64 value = rng.NextBelow(256);
          cam.Write(index, key, value);
          expected.Write(index, key, value);
          break;
        }
        case 2: {
          const usize index = rng.NextBelow(shape.entries);
          cam.Invalidate(index);
          expected.Invalidate(index);
          break;
        }
        case 3:
          sim.Step();  // commits the CAM's pending writes
          expected.Commit();
          break;
        case 4: {
          const u64 bit = rng.NextBelow(cam.state_bits());
          cam.InjectBitFlip(bit);
          expected.InjectBitFlip(bit);
          break;
        }
        default:
          break;
      }
      // A flipped key bit turns a pool key into one near it; look both up.
      u64 key = keys[rng.NextBelow(keys.size())];
      if (rng.NextBool(0.3)) {
        key ^= u64{1} << rng.NextBelow(shape.key_bits);
      }
      const CamLookupResult got = cam.Lookup(key);
      const CamLookupResult want = expected.Lookup(key);
      ASSERT_EQ(got.hit, want.hit) << what;
      ASSERT_EQ(got.value, want.value) << what;
      ASSERT_EQ(got.index, want.index) << what;
      hits += got.hit ? 1 : 0;
    }
    EXPECT_GT(hits, 1'000u);
  }
}

// The LRU block's pattern (one hash per operation, reused by Read, Erase and
// Write) against hashing on every call: the bucket tables stay identical.
TEST(NetReference, HashCamHashedOnceMatchesPerCallHashing) {
  Rng rng(0x4a54);
  Simulator sim;
  HashCam cam(sim, "hashcam", 32);
  reference::HashCam expected(cam.buckets());
  std::vector<u64> keys(48);
  for (u64& key : keys) {
    key = rng.NextU64();
  }
  usize failed_writes = 0;
  for (usize step = 0; step < 20'000; ++step) {
    const std::string what = "step " + std::to_string(step);
    const u64 raw = keys[rng.NextBelow(keys.size())];
    const HashCam::Key key = HashCam::Hashed(raw);
    const u64 index = rng.NextBelow(1'000);
    switch (rng.NextBelow(5)) {
      case 0:
        ASSERT_EQ(cam.Read(key), expected.Read(raw)) << what;
        ASSERT_EQ(cam.matched(), expected.matched()) << what;
        break;
      case 1:
        ASSERT_EQ(cam.Write(key, index), expected.Write(raw, index)) << what;
        break;
      case 2:
        cam.Erase(key);
        expected.Erase(raw);
        break;
      case 3: {
        // A re-cache: read the binding, drop it, bind the key anew.
        ASSERT_EQ(cam.Read(key), expected.Read(raw)) << what;
        cam.Erase(key);
        expected.Erase(raw);
        const bool written = cam.Write(key, index);
        ASSERT_EQ(written, expected.Write(raw, index)) << what;
        failed_writes += written ? 0 : 1;
        break;
      }
      default: {
        const u64 bit = rng.NextBelow(cam.state_bits());
        cam.InjectBitFlip(bit);
        expected.InjectBitFlip(bit);
        break;
      }
    }
    const std::span<const HashCam::Bucket> table = cam.table();
    ASSERT_EQ(table.size(), expected.table().size());
    for (usize i = 0; i < table.size(); ++i) {
      ASSERT_EQ(table[i].valid, expected.table()[i].valid) << what << " bucket " << i;
      ASSERT_EQ(table[i].key, expected.table()[i].key) << what << " bucket " << i;
      ASSERT_EQ(table[i].index, expected.table()[i].index) << what << " bucket " << i;
    }
  }
  // 48 keys in 32 buckets: the probe window runs out, as it does when full.
  EXPECT_GT(failed_writes, 0u);
}

}  // namespace
}  // namespace emu
