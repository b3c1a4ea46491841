#include "src/core/protocol_wrappers.h"

namespace emu {
namespace {

// Offset of the L4 header, or 0 when the frame is not valid IPv4 carrying
// `protocol`.
usize L4Offset(Packet& packet, IpProtocol protocol) {
  EthernetView eth(packet);
  if (!eth.Valid() || !eth.EtherTypeIs(EtherType::kIpv4)) {
    return 0;
  }
  Ipv4View ip(packet);
  if (!ip.Valid() || !ip.ProtocolIs(protocol)) {
    return 0;
  }
  return ip.payload_offset();
}

usize L4Length(Packet& packet) {
  Ipv4View ip(packet);
  // total_length comes off the wire: a corrupted frame can claim more bytes
  // than the buffer holds (or fewer than its own header). Clamp to what is
  // actually present so checksum walks never read past the frame.
  const usize header = ip.HeaderBytes();
  const usize claimed = ip.total_length();
  if (claimed < header) {
    return 0;
  }
  const usize offset = ip.payload_offset();
  const usize available = packet.size() > offset ? packet.size() - offset : 0;
  const usize length = claimed - header;
  return length < available ? length : available;
}

}  // namespace

TcpWrapper::TcpWrapper(NetFpgaData& dataplane)
    : TcpView(dataplane.tdata, L4Offset(dataplane.tdata, IpProtocol::kTcp)),
      reachable_(L4Offset(dataplane.tdata, IpProtocol::kTcp) != 0) {
  if (reachable_) {
    segment_length_ = L4Length(dataplane.tdata);
  }
}

UdpWrapper::UdpWrapper(Packet& frame)
    : UdpView(frame, L4Offset(frame, IpProtocol::kUdp)),
      reachable_(L4Offset(frame, IpProtocol::kUdp) != 0) {}

IcmpWrapper::IcmpWrapper(NetFpgaData& dataplane)
    : IcmpView(dataplane.tdata, L4Offset(dataplane.tdata, IpProtocol::kIcmp)),
      reachable_(L4Offset(dataplane.tdata, IpProtocol::kIcmp) != 0) {
  if (reachable_) {
    message_length_ = L4Length(dataplane.tdata);
  }
}

}  // namespace emu
