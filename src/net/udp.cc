#include "src/net/udp.h"

#include "src/common/bit_util.h"
#include "src/net/checksum.h"

namespace emu {

u16 UdpView::source_port() const { return BitUtil::Get16(packet_.bytes(), offset_); }
void UdpView::set_source_port(u16 value) { BitUtil::Set16(packet_.bytes(), offset_, value); }

u16 UdpView::destination_port() const { return BitUtil::Get16(packet_.bytes(), offset_ + 2); }
void UdpView::set_destination_port(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 2, value);
}

u16 UdpView::length() const { return BitUtil::Get16(packet_.bytes(), offset_ + 4); }
void UdpView::set_length(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 4, value); }

u16 UdpView::checksum() const { return BitUtil::Get16(packet_.bytes(), offset_ + 6); }
void UdpView::set_checksum(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 6, value); }

// The length field comes off the wire: a corrupted datagram can claim more
// bytes than the frame holds (or fewer than its own header). Every span
// derived from it is clamped to what is actually present.
usize UdpView::BoundedLength() const {
  const usize available = packet_.size() > offset_ ? packet_.size() - offset_ : 0;
  const usize claimed = length();
  return claimed < available ? claimed : available;
}

std::span<const u8> UdpView::Payload() const {
  const usize len = BoundedLength();
  if (len <= kUdpHeaderSize) {
    return {};
  }
  return packet_.View(offset_ + kUdpHeaderSize, len - kUdpHeaderSize);
}

std::span<u8> UdpView::MutablePayload() {
  const usize len = BoundedLength();
  if (len <= kUdpHeaderSize) {
    return {};
  }
  return packet_.MutableView(offset_ + kUdpHeaderSize, len - kUdpHeaderSize);
}

void UdpView::UpdateChecksum(const Ipv4View& ip) {
  set_checksum(0);
  u16 sum = TransportChecksum(ip.source(), ip.destination(), static_cast<u8>(IpProtocol::kUdp),
                              packet_.View(offset_, BoundedLength()));
  if (sum == 0) {
    sum = 0xffff;  // RFC 768: transmitted zero means "no checksum"
  }
  set_checksum(sum);
}

bool UdpView::ChecksumValid(const Ipv4View& ip) const {
  if (checksum() == 0) {
    return true;  // sender opted out
  }
  return TransportChecksum(ip.source(), ip.destination(), static_cast<u8>(IpProtocol::kUdp),
                           packet_.View(offset_, BoundedLength())) == 0;
}

Packet MakeUdpPacket(const UdpPacketSpec& spec, std::span<const u8> payload) {
  Ipv4PacketSpec ip_spec;
  ip_spec.eth_dst = spec.eth_dst;
  ip_spec.eth_src = spec.eth_src;
  ip_spec.ip_src = spec.ip_src;
  ip_spec.ip_dst = spec.ip_dst;
  ip_spec.protocol = IpProtocol::kUdp;
  Packet frame = MakeIpv4Packet(ip_spec, kUdpHeaderSize, payload);

  Ipv4View ip(frame);
  UdpView view(frame, ip.payload_offset());
  view.set_source_port(spec.src_port);
  view.set_destination_port(spec.dst_port);
  view.set_length(static_cast<u16>(kUdpHeaderSize + payload.size()));
  view.UpdateChecksum(ip);
  return frame;
}

}  // namespace emu
