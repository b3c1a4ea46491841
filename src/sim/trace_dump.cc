#include "src/sim/trace_dump.h"

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/common/hexdump.h"
#include "src/net/arp.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"

namespace emu {

std::string DescribePacket(const Packet& packet) {
  Packet copy = packet;
  EthernetView eth(copy);
  if (!eth.Valid()) {
    return "short-frame len=" + std::to_string(packet.size());
  }
  char buf[160];
  if (eth.EtherTypeIs(EtherType::kIpv4)) {
    Ipv4View ip(copy);
    if (ip.Valid()) {
      std::snprintf(buf, sizeof(buf), "IPv4 %s>%s proto=%u ttl=%u len=%zu",
                    ip.source().ToString().c_str(), ip.destination().ToString().c_str(),
                    ip.protocol_raw(), ip.ttl(), packet.size());
      return buf;
    }
    return "malformed-IPv4 len=" + std::to_string(packet.size());
  }
  if (eth.EtherTypeIs(EtherType::kArp)) {
    ArpView arp(copy);
    if (arp.Valid()) {
      std::snprintf(buf, sizeof(buf), "ARP %s %s asks %s",
                    arp.OperIs(ArpOper::kRequest) ? "request" : "reply",
                    arp.sender_ip().ToString().c_str(), arp.target_ip().ToString().c_str());
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "eth %s>%s type=0x%04x len=%zu",
                eth.source().ToString().c_str(), eth.destination().ToString().c_str(),
                eth.ether_type_raw(), packet.size());
  return buf;
}

void TraceDump::Capture(Picoseconds time, std::string tag, const Packet& packet) {
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(Record{time, std::move(tag), packet});
}

std::string TraceDump::Summary() const {
  std::string out;
  char head[64];
  for (const Record& record : records_) {
    std::snprintf(head, sizeof(head), "%12.3fus %-12s ", ToMicroseconds(record.time),
                  record.tag.c_str());
    out += head;
    out += DescribePacket(record.packet);
    out += '\n';
  }
  if (dropped_ > 0) {
    out += "(" + std::to_string(dropped_) + " packets dropped at capacity " +
           std::to_string(capacity_) + ")\n";
  }
  return out;
}

std::string TraceDump::Full() const {
  std::string out;
  char head[64];
  for (const Record& record : records_) {
    std::snprintf(head, sizeof(head), "%12.3fus %-12s ", ToMicroseconds(record.time),
                  record.tag.c_str());
    out += head;
    out += DescribePacket(record.packet);
    out += '\n';
    out += Hexdump(record.packet.bytes());
  }
  return out;
}

bool TraceDump::WritePcap(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  const auto put32 = [&](u32 value) {
    file.write(reinterpret_cast<const char*>(&value), 4);  // host order, per pcap magic
  };
  const auto put16 = [&](u16 value) {
    file.write(reinterpret_cast<const char*>(&value), 2);
  };
  // Global header: magic, version 2.4, zone 0, sigfigs 0, snaplen, Ethernet.
  put32(0xa1b2c3d4);
  put16(2);
  put16(4);
  put32(0);
  put32(0);
  put32(65535);
  put32(1);  // LINKTYPE_ETHERNET
  for (const Record& record : records_) {
    const u64 micros = static_cast<u64>(record.time / kPicosPerMicro);
    put32(static_cast<u32>(micros / 1'000'000));  // seconds
    put32(static_cast<u32>(micros % 1'000'000));  // microseconds
    put32(static_cast<u32>(record.packet.size()));
    put32(static_cast<u32>(record.packet.size()));
    file.write(reinterpret_cast<const char*>(record.packet.bytes().data()),
               static_cast<std::streamsize>(record.packet.size()));
  }
  return static_cast<bool>(file);
}

bool TraceDump::WriteToFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << Full();
  return static_cast<bool>(file);
}

Expected<std::vector<Packet>> ReadPcap(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFound("cannot open pcap file " + path);
  }
  const auto get32 = [&](u32* out) {
    file.read(reinterpret_cast<char*>(out), 4);
    return static_cast<bool>(file);
  };
  u32 magic = 0;
  if (!get32(&magic) || magic != 0xa1b2c3d4) {
    return MalformedPacket("bad pcap magic (only host-endian v2.4 supported)");
  }
  u32 scratch = 0;
  u32 snaplen = 0;
  u32 linktype = 0;
  // Version, zone and sigfigs are not checked.
  if (!get32(&scratch) || !get32(&scratch) || !get32(&scratch) || !get32(&snaplen) ||
      !get32(&linktype)) {
    return MalformedPacket("truncated pcap file header");
  }
  if (linktype != 1) {
    return UnsupportedProtocol("pcap linktype is not Ethernet");
  }
  // The latest capture time whose ingress time fits in Picoseconds.
  constexpr u64 kMaxMicros =
      static_cast<u64>(std::numeric_limits<Picoseconds>::max() / kPicosPerMicro);
  std::vector<Packet> packets;
  const auto malformed = [&packets](const std::string& what) {
    return MalformedPacket("pcap record " + std::to_string(packets.size()) + ": " + what);
  };
  for (;;) {
    u32 ts_sec = 0;
    if (!get32(&ts_sec)) {
      if (file.gcount() == 0) {
        break;  // clean EOF
      }
      return malformed("truncated header");
    }
    u32 ts_usec = 0;
    u32 incl = 0;
    u32 orig = 0;
    if (!get32(&ts_usec) || !get32(&incl) || !get32(&orig)) {
      return malformed("truncated header");
    }
    if (ts_usec >= 1'000'000) {
      return malformed("microseconds field " + std::to_string(ts_usec) + " is not below 1000000");
    }
    const u64 micros = static_cast<u64>(ts_sec) * 1'000'000 + ts_usec;
    if (micros > kMaxMicros) {
      return malformed("capture time " + std::to_string(ts_sec) +
                       " s is past the simulated clock's range");
    }
    if (incl > snaplen || incl > 1u << 20) {
      return malformed("length implausible");
    }
    std::vector<u8> data(incl);
    file.read(reinterpret_cast<char*>(data.data()), incl);
    if (!file) {
      return malformed("truncated body");
    }
    Packet packet(std::move(data));
    packet.set_ingress_time(static_cast<Picoseconds>(micros) * kPicosPerMicro);
    packets.push_back(std::move(packet));
  }
  return packets;
}

}  // namespace emu
