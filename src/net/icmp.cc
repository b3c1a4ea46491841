#include "src/net/icmp.h"

#include "src/common/bit_util.h"
#include "src/net/checksum.h"

namespace emu {

u8 IcmpView::type_raw() const { return BitUtil::Get8(packet_.bytes(), offset_); }
void IcmpView::set_type(IcmpType type) {
  BitUtil::Set8(packet_.bytes(), offset_, static_cast<u8>(type));
}

u8 IcmpView::code() const { return BitUtil::Get8(packet_.bytes(), offset_ + 1); }
void IcmpView::set_code(u8 value) { BitUtil::Set8(packet_.bytes(), offset_ + 1, value); }

u16 IcmpView::checksum() const { return BitUtil::Get16(packet_.bytes(), offset_ + 2); }
void IcmpView::set_checksum(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 2, value); }

u16 IcmpView::identifier() const { return BitUtil::Get16(packet_.bytes(), offset_ + 4); }
void IcmpView::set_identifier(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 4, value); }

u16 IcmpView::sequence() const { return BitUtil::Get16(packet_.bytes(), offset_ + 6); }
void IcmpView::set_sequence(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 6, value); }

// icmp_length is derived from the wire IP header; clamp to the bytes
// actually present so a corrupted length never walks past the frame.
usize IcmpView::BoundedLength(usize icmp_length) const {
  const usize available = packet_.size() > offset_ ? packet_.size() - offset_ : 0;
  return icmp_length < available ? icmp_length : available;
}

void IcmpView::UpdateChecksum(usize icmp_length) {
  set_checksum(0);
  set_checksum(InternetChecksum(packet_.View(offset_, BoundedLength(icmp_length))));
}

bool IcmpView::ChecksumValid(usize icmp_length) const {
  return InternetChecksum(packet_.View(offset_, BoundedLength(icmp_length))) == 0;
}

Packet MakeIcmpEchoRequest(const IcmpEchoSpec& spec, std::span<const u8> payload) {
  Ipv4PacketSpec ip_spec;
  ip_spec.eth_dst = spec.eth_dst;
  ip_spec.eth_src = spec.eth_src;
  ip_spec.ip_src = spec.ip_src;
  ip_spec.ip_dst = spec.ip_dst;
  ip_spec.protocol = IpProtocol::kIcmp;
  Packet frame = MakeIpv4Packet(ip_spec, kIcmpHeaderSize, payload);

  Ipv4View ip(frame);
  IcmpView view(frame, ip.payload_offset());
  view.set_type(IcmpType::kEchoRequest);
  view.set_code(0);
  view.set_identifier(spec.identifier);
  view.set_sequence(spec.sequence);
  view.UpdateChecksum(kIcmpHeaderSize + payload.size());
  return frame;
}

}  // namespace emu
