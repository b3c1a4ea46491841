// Packet trace capture and replay: human-readable dumps plus real libpcap
// files in both directions — the OSNT side of the rig "replays real traffic
// traces" (§5.2), and ReadPcap is how such a trace gets into a loadgen.
#ifndef SRC_SIM_TRACE_DUMP_H_
#define SRC_SIM_TRACE_DUMP_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/packet.h"

namespace emu {

class TraceDump {
 public:
  struct Record {
    Picoseconds time = 0;
    std::string tag;
    Packet packet;
  };

  // Records at most `capacity()` packets; once full, further captures are
  // counted in `dropped()` instead of growing without bound (long soaks used
  // to accumulate gigabytes of copies here).
  void Capture(Picoseconds time, std::string tag, const Packet& packet);

  usize size() const { return records_.size(); }
  const Record& record(usize i) const { return records_[i]; }

  usize capacity() const { return capacity_; }
  void set_capacity(usize capacity) { capacity_ = capacity; }
  u64 dropped() const { return dropped_; }

  // One line per packet: time, tag, decoded L2/L3 summary (plus a trailing
  // drop note when the capture cap was hit).
  std::string Summary() const;
  // Full hexdump rendering.
  std::string Full() const;

  // Writes Full() to a file; returns false on I/O failure.
  bool WriteToFile(const std::string& path) const;

  // Writes a classic libpcap (v2.4, LINKTYPE_ETHERNET) capture file openable
  // in wireshark/tcpdump; timestamps come from each record's capture time.
  bool WritePcap(const std::string& path) const;

  void Clear() {
    records_.clear();
    dropped_ = 0;
  }

 private:
  // Default is generous for unit tests yet small enough that a runaway soak
  // stays bounded (~64k frame copies).
  static constexpr usize kDefaultCapacity = 65536;

  std::vector<Record> records_;
  usize capacity_ = kDefaultCapacity;
  u64 dropped_ = 0;
};

// Decodes a one-line human summary of a frame ("IPv4 10.0.0.1>10.0.0.2
// proto=17 len=60").
std::string DescribePacket(const Packet& packet);

// Loads a classic libpcap file (as written by WritePcap, or any
// host-endian v2.4 Ethernet capture). Each record's capture time lands in
// the packet's ingress_time, so a loadgen can replay with original pacing.
// A record whose microseconds field is not below 1,000,000, or whose time
// does not fit in Picoseconds (about 106 days), is MalformedPacket naming
// the record's index: a capture stamped in Unix-epoch seconds must be
// rebased to start near zero first.
Expected<std::vector<Packet>> ReadPcap(const std::string& path);

}  // namespace emu

#endif  // SRC_SIM_TRACE_DUMP_H_
