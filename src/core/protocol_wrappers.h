// Protocol wrappers in the paper's style (Fig. 3):
//
//   var eth = new EthernetWrapper(dataplane.tdata);
//   var ip  = new IPv4Wrapper(dataplane.tdata);
//   var tcp = new TCPWrapper(dataplane.tdata);
//   var arp = new ARPWrapper(dataplane.tdata);
//
// Each wrapper binds a protocol view to a NetFpgaData frame at the right
// offset (computed from the lower layers, e.g. TCP after the actual IHL) and
// exposes a Valid() check. They are thin sugar over the src/net views so
// service code reads like the paper's C#.
#ifndef SRC_CORE_PROTOCOL_WRAPPERS_H_
#define SRC_CORE_PROTOCOL_WRAPPERS_H_

#include "src/net/arp.h"
#include "src/net/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/net/tcp.h"
#include "src/net/udp.h"
#include "src/netfpga/dataplane.h"

namespace emu {

class EthernetWrapper : public EthernetView {
 public:
  explicit EthernetWrapper(NetFpgaData& dataplane) : EthernetView(dataplane.tdata) {}
};

class Ipv4Wrapper : public Ipv4View {
 public:
  explicit Ipv4Wrapper(NetFpgaData& dataplane)
      : Ipv4View(dataplane.tdata, kEthernetHeaderSize),
        reachable_(EthernetView(dataplane.tdata).Valid() &&
                   EthernetView(dataplane.tdata).EtherTypeIs(EtherType::kIpv4)) {}

  // Valid IPv4 *and* the Ethernet header says this is IPv4.
  bool Reachable() const { return reachable_ && Valid(); }

 private:
  bool reachable_;
};

class ArpWrapper : public ArpView {
 public:
  explicit ArpWrapper(NetFpgaData& dataplane)
      : ArpView(dataplane.tdata, kEthernetHeaderSize),
        reachable_(EthernetView(dataplane.tdata).Valid() &&
                   EthernetView(dataplane.tdata).EtherTypeIs(EtherType::kArp)) {}

  bool Reachable() const { return reachable_ && Valid(); }

 private:
  bool reachable_;
};

// L4 wrappers compute their offset from the IPv4 IHL; Reachable() is false
// when the frame is not IPv4 or carries a different protocol.
class TcpWrapper : public TcpView {
 public:
  explicit TcpWrapper(NetFpgaData& dataplane);
  bool Reachable() const { return reachable_ && Valid(); }
  usize SegmentLength() const { return segment_length_; }

 private:
  bool reachable_;
  usize segment_length_ = 0;
};

class UdpWrapper : public UdpView {
 public:
  explicit UdpWrapper(NetFpgaData& dataplane) : UdpWrapper(dataplane.tdata) {}
  explicit UdpWrapper(Packet& frame);
  bool Reachable() const { return reachable_ && Valid(); }

 private:
  bool reachable_;
};

class IcmpWrapper : public IcmpView {
 public:
  explicit IcmpWrapper(NetFpgaData& dataplane);
  bool Reachable() const { return reachable_ && Valid(); }
  usize MessageLength() const { return message_length_; }

 private:
  bool reachable_;
  usize message_length_ = 0;
};

}  // namespace emu

#endif  // SRC_CORE_PROTOCOL_WRAPPERS_H_
