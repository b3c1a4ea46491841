// Ethernet II framing.
//
// EthernetView is a non-owning header view over a frame (the style of the
// paper's EthernetWrapper, Fig. 3): getters/setters over named fields backed
// by BitUtil accesses into the raw bytes.
#ifndef SRC_NET_ETHERNET_H_
#define SRC_NET_ETHERNET_H_

#include "src/common/status.h"
#include "src/net/mac_address.h"
#include "src/net/packet.h"

namespace emu {

enum class EtherType : u16 {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kIpv6 = 0x86dd,
};

inline constexpr usize kEthernetHeaderSize = 14;

class EthernetView {
 public:
  // The frame must be at least kEthernetHeaderSize long (checked by Valid()).
  explicit EthernetView(Packet& packet) : packet_(packet) {}

  bool Valid() const { return packet_.size() >= kEthernetHeaderSize; }

  MacAddress destination() const;
  void set_destination(MacAddress mac);

  MacAddress source() const;
  void set_source(MacAddress mac);

  u16 ether_type_raw() const;
  void set_ether_type(EtherType type);

  bool EtherTypeIs(EtherType type) const { return ether_type_raw() == static_cast<u16>(type); }

  // Payload region (everything after the header).
  std::span<const u8> Payload() const;
  std::span<u8> MutablePayload();

 private:
  Packet& packet_;
};

// Builds an Ethernet frame around `payload`, padding to the 60-byte minimum.
Packet MakeEthernetFrame(MacAddress dst, MacAddress src, EtherType type,
                         std::span<const u8> payload);

// The same frame with `inner_header_bytes` zero bytes between the Ethernet
// header and `payload`, for the layers above to write their headers into.
// The frame is sized once, so a layered builder costs one allocation.
Packet MakeEthernetFrame(MacAddress dst, MacAddress src, EtherType type,
                         usize inner_header_bytes, std::span<const u8> payload);

}  // namespace emu

#endif  // SRC_NET_ETHERNET_H_
