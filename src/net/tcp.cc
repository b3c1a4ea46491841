#include "src/net/tcp.h"

#include "src/common/bit_util.h"
#include "src/net/checksum.h"

namespace emu {

u16 TcpView::source_port() const { return BitUtil::Get16(packet_.bytes(), offset_); }
void TcpView::set_source_port(u16 value) { BitUtil::Set16(packet_.bytes(), offset_, value); }

u16 TcpView::destination_port() const { return BitUtil::Get16(packet_.bytes(), offset_ + 2); }
void TcpView::set_destination_port(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 2, value);
}

u32 TcpView::sequence() const { return BitUtil::Get32(packet_.bytes(), offset_ + 4); }
void TcpView::set_sequence(u32 value) { BitUtil::Set32(packet_.bytes(), offset_ + 4, value); }

u32 TcpView::ack_number() const { return BitUtil::Get32(packet_.bytes(), offset_ + 8); }
void TcpView::set_ack_number(u32 value) { BitUtil::Set32(packet_.bytes(), offset_ + 8, value); }

u8 TcpView::data_offset() const { return BitUtil::GetBits(packet_.bytes(), offset_ + 12, 0, 4); }
void TcpView::set_data_offset(u8 words) {
  BitUtil::SetBits(packet_.bytes(), offset_ + 12, 0, 4, words);
}

u8 TcpView::flags() const { return BitUtil::Get8(packet_.bytes(), offset_ + 13); }
void TcpView::set_flags(u8 value) { BitUtil::Set8(packet_.bytes(), offset_ + 13, value); }

u16 TcpView::window() const { return BitUtil::Get16(packet_.bytes(), offset_ + 14); }
void TcpView::set_window(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 14, value); }

u16 TcpView::checksum() const { return BitUtil::Get16(packet_.bytes(), offset_ + 16); }
void TcpView::set_checksum(u16 value) { BitUtil::Set16(packet_.bytes(), offset_ + 16, value); }

u16 TcpView::urgent_pointer() const { return BitUtil::Get16(packet_.bytes(), offset_ + 18); }
void TcpView::set_urgent_pointer(u16 value) {
  BitUtil::Set16(packet_.bytes(), offset_ + 18, value);
}

// segment_length is derived from wire header fields; clamp to the bytes
// actually present so a corrupted length never walks past the frame.
usize TcpView::BoundedLength(usize segment_length) const {
  const usize available = packet_.size() > offset_ ? packet_.size() - offset_ : 0;
  return segment_length < available ? segment_length : available;
}

void TcpView::UpdateChecksum(const Ipv4View& ip, usize segment_length) {
  set_checksum(0);
  set_checksum(TransportChecksum(ip.source(), ip.destination(),
                                 static_cast<u8>(IpProtocol::kTcp),
                                 packet_.View(offset_, BoundedLength(segment_length))));
}

bool TcpView::ChecksumValid(const Ipv4View& ip, usize segment_length) const {
  return TransportChecksum(ip.source(), ip.destination(), static_cast<u8>(IpProtocol::kTcp),
                           packet_.View(offset_, BoundedLength(segment_length))) == 0;
}

Packet MakeTcpSegment(const TcpSegmentSpec& spec, std::span<const u8> payload) {
  Ipv4PacketSpec ip_spec;
  ip_spec.eth_dst = spec.eth_dst;
  ip_spec.eth_src = spec.eth_src;
  ip_spec.ip_src = spec.ip_src;
  ip_spec.ip_dst = spec.ip_dst;
  ip_spec.protocol = IpProtocol::kTcp;
  Packet frame = MakeIpv4Packet(ip_spec, kTcpMinHeaderSize, payload);

  Ipv4View ip(frame);
  TcpView view(frame, ip.payload_offset());
  view.set_source_port(spec.src_port);
  view.set_destination_port(spec.dst_port);
  view.set_sequence(spec.seq);
  view.set_ack_number(spec.ack);
  view.set_data_offset(5);
  view.set_flags(spec.flags);
  view.set_window(spec.window);
  view.UpdateChecksum(ip, kTcpMinHeaderSize + payload.size());
  return frame;
}

}  // namespace emu
