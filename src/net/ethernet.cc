#include "src/net/ethernet.h"

#include <algorithm>

#include "src/common/bit_util.h"

namespace emu {

MacAddress EthernetView::destination() const {
  return MacAddress::FromU48(BitUtil::Get48(packet_.bytes(), 0));
}

void EthernetView::set_destination(MacAddress mac) {
  BitUtil::Set48(packet_.bytes(), 0, mac.ToU48());
}

MacAddress EthernetView::source() const {
  return MacAddress::FromU48(BitUtil::Get48(packet_.bytes(), 6));
}

void EthernetView::set_source(MacAddress mac) { BitUtil::Set48(packet_.bytes(), 6, mac.ToU48()); }

u16 EthernetView::ether_type_raw() const { return BitUtil::Get16(packet_.bytes(), 12); }

void EthernetView::set_ether_type(EtherType type) {
  BitUtil::Set16(packet_.bytes(), 12, static_cast<u16>(type));
}

std::span<const u8> EthernetView::Payload() const {
  return packet_.View(kEthernetHeaderSize, packet_.size() - kEthernetHeaderSize);
}

std::span<u8> EthernetView::MutablePayload() {
  return packet_.MutableView(kEthernetHeaderSize, packet_.size() - kEthernetHeaderSize);
}

Packet MakeEthernetFrame(MacAddress dst, MacAddress src, EtherType type,
                         std::span<const u8> payload) {
  return MakeEthernetFrame(dst, src, type, 0, payload);
}

Packet MakeEthernetFrame(MacAddress dst, MacAddress src, EtherType type,
                         usize inner_header_bytes, std::span<const u8> payload) {
  const usize payload_offset = kEthernetHeaderSize + inner_header_bytes;
  Packet packet(std::max(payload_offset + payload.size(), kEthernetMinFrame));
  EthernetView eth(packet);
  eth.set_destination(dst);
  eth.set_source(src);
  eth.set_ether_type(type);
  std::ranges::copy(payload, packet.bytes().begin() + static_cast<isize>(payload_offset));
  return packet;
}

}  // namespace emu
