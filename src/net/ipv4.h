// IPv4 header view and builders (the paper's IPv4Wrapper, Fig. 3/4).
#ifndef SRC_NET_IPV4_H_
#define SRC_NET_IPV4_H_

#include "src/common/status.h"
#include "src/net/ethernet.h"
#include "src/net/mac_address.h"
#include "src/net/packet.h"

namespace emu {

enum class IpProtocol : u8 {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

inline constexpr usize kIpv4MinHeaderSize = 20;

// View over the IPv4 header at byte `offset` inside the packet (normally
// kEthernetHeaderSize). Field names follow RFC 791.
class Ipv4View {
 public:
  explicit Ipv4View(Packet& packet, usize offset = kEthernetHeaderSize)
      : packet_(packet), offset_(offset) {}

  bool Valid() const;

  u8 version() const;
  u8 ihl() const;  // header length in 32-bit words
  usize HeaderBytes() const { return ihl() * 4u; }
  void SetVersionIhl(u8 version, u8 ihl);

  u8 dscp_ecn() const;
  void set_dscp_ecn(u8 value);

  u16 total_length() const;
  void set_total_length(u16 value);

  u16 identification() const;
  void set_identification(u16 value);

  u16 flags_fragment() const;
  void set_flags_fragment(u16 value);

  u8 ttl() const;
  void set_ttl(u8 value);

  u8 protocol_raw() const;
  void set_protocol(IpProtocol protocol);
  bool ProtocolIs(IpProtocol protocol) const {
    return protocol_raw() == static_cast<u8>(protocol);
  }

  u16 header_checksum() const;
  void set_header_checksum(u16 value);

  Ipv4Address source() const;
  void set_source(Ipv4Address addr);

  Ipv4Address destination() const;
  void set_destination(Ipv4Address addr);

  // Recomputes and stores the header checksum.
  void UpdateChecksum();
  // True when the stored checksum verifies.
  bool ChecksumValid() const;

  usize payload_offset() const { return offset_ + HeaderBytes(); }
  std::span<const u8> Payload() const;
  std::span<u8> MutablePayload();

 private:
  Packet& packet_;
  usize offset_;
};

struct Ipv4PacketSpec {
  MacAddress eth_dst;
  MacAddress eth_src;
  Ipv4Address ip_src;
  Ipv4Address ip_dst;
  IpProtocol protocol = IpProtocol::kUdp;
  u8 ttl = 64;
  u16 identification = 0;
};

// Builds Ethernet+IPv4 around an L4 payload, checksum filled in.
Packet MakeIpv4Packet(const Ipv4PacketSpec& spec, std::span<const u8> l4_payload);

// The same frame with `l4_header_bytes` zero bytes in front of `l4_payload`,
// for a transport builder to write its header into (one allocation).
Packet MakeIpv4Packet(const Ipv4PacketSpec& spec, usize l4_header_bytes,
                      std::span<const u8> l4_payload);

}  // namespace emu

#endif  // SRC_NET_IPV4_H_
