#include "src/net/ipv4.h"

#include "src/common/bit_util.h"
#include "src/net/checksum.h"

namespace emu {

bool Ipv4View::Valid() const {
  if (packet_.size() < offset_ + kIpv4MinHeaderSize) {
    return false;
  }
  if (version() != 4 || ihl() < 5) {
    return false;
  }
  return packet_.size() >= offset_ + HeaderBytes() &&
         packet_.size() >= offset_ + total_length();
}

u8 Ipv4View::version() const { return BitUtil::Get8(packet_.bytes(), offset_) >> 4; }

u8 Ipv4View::ihl() const { return BitUtil::Get8(packet_.bytes(), offset_) & 0x0f; }

void Ipv4View::SetVersionIhl(u8 version, u8 ihl) {
  BitUtil::SetBits(packet_.bytes(), offset_, 0, 4, version);
  BitUtil::SetBits(packet_.bytes(), offset_, 4, 4, ihl);
}

u8 Ipv4View::dscp_ecn() const { return BitUtil::Get8(packet_.bytes(), offset_ + 1); }
void Ipv4View::set_dscp_ecn(u8 value) { BitUtil::Set8(packet_.bytes(), offset_ + 1, value); }

u16 Ipv4View::total_length() const { return BitUtil::Get16(packet_.bytes(), offset_ + 2); }
void Ipv4View::set_total_length(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 2, value); }

u16 Ipv4View::identification() const { return BitUtil::Get16(packet_.bytes(), offset_ + 4); }
void Ipv4View::set_identification(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 4, value);
}

u16 Ipv4View::flags_fragment() const { return BitUtil::Get16(packet_.bytes(), offset_ + 6); }
void Ipv4View::set_flags_fragment(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 6, value);
}

u8 Ipv4View::ttl() const { return BitUtil::Get8(packet_.bytes(), offset_ + 8); }
void Ipv4View::set_ttl(u8 value) { BitUtil::Set8(packet_.bytes(), offset_ + 8, value); }

u8 Ipv4View::protocol_raw() const { return BitUtil::Get8(packet_.bytes(), offset_ + 9); }
void Ipv4View::set_protocol(IpProtocol protocol) {
  BitUtil::Set8(packet_.bytes(), offset_ + 9, static_cast<u8>(protocol));
}

u16 Ipv4View::header_checksum() const { return BitUtil::Get16(packet_.bytes(), offset_ + 10); }
void Ipv4View::set_header_checksum(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 10, value);
}

Ipv4Address Ipv4View::source() const {
  return Ipv4Address(BitUtil::Get32(packet_.bytes(), offset_ + 12));
}
void Ipv4View::set_source(Ipv4Address addr) {
  BitUtil::Set32(packet_.bytes(), offset_ + 12, addr.value());
}

Ipv4Address Ipv4View::destination() const {
  return Ipv4Address(BitUtil::Get32(packet_.bytes(), offset_ + 16));
}
void Ipv4View::set_destination(Ipv4Address addr) {
  BitUtil::Set32(packet_.bytes(), offset_ + 16, addr.value());
}

void Ipv4View::UpdateChecksum() {
  set_header_checksum(0);
  set_header_checksum(InternetChecksum(packet_.View(offset_, HeaderBytes())));
}

bool Ipv4View::ChecksumValid() const {
  return InternetChecksum(packet_.View(offset_, HeaderBytes())) == 0;
}

std::span<const u8> Ipv4View::Payload() const {
  const usize start = payload_offset();
  const usize len = offset_ + total_length() - start;
  return packet_.View(start, len);
}

std::span<u8> Ipv4View::MutablePayload() {
  const usize start = payload_offset();
  const usize len = offset_ + total_length() - start;
  return packet_.MutableView(start, len);
}

Packet MakeIpv4Packet(const Ipv4PacketSpec& spec, std::span<const u8> l4_payload) {
  return MakeIpv4Packet(spec, 0, l4_payload);
}

Packet MakeIpv4Packet(const Ipv4PacketSpec& spec, usize l4_header_bytes,
                      std::span<const u8> l4_payload) {
  Packet frame = MakeEthernetFrame(spec.eth_dst, spec.eth_src, EtherType::kIpv4,
                                   kIpv4MinHeaderSize + l4_header_bytes, l4_payload);
  Ipv4View ip(frame);
  ip.SetVersionIhl(4, 5);
  ip.set_total_length(
      static_cast<u16>(kIpv4MinHeaderSize + l4_header_bytes + l4_payload.size()));
  ip.set_identification(spec.identification);
  ip.set_ttl(spec.ttl);
  ip.set_protocol(spec.protocol);
  ip.set_source(spec.ip_src);
  ip.set_destination(spec.ip_dst);
  ip.UpdateChecksum();
  return frame;
}

}  // namespace emu
