// NetFpgaData and the NetFPGA utility API (Fig. 6).
//
// Services see packets as NetFpgaData records: the frame (tdata) plus the
// tuser metadata the pipeline carries. The static NetFpga functions mirror
// the paper's utility API verbatim (Get_Frame / Set_Frame / Read_Input_Port /
// Set_Output_Port plus Broadcast, Fig. 2 line 6/8) so service code reads like
// the paper's C#.
#ifndef SRC_NETFPGA_DATAPLANE_H_
#define SRC_NETFPGA_DATAPLANE_H_

#include <vector>

#include "src/net/packet.h"

namespace emu {

struct NetFpgaData {
  Packet tdata;
  // True once the service chose an output (dropping is expressed by never
  // setting an output port, as the Fig. 2 comment explains).
  bool output_valid = false;
};

class NetFpga {
 public:
  NetFpga() = delete;

  // Extracts the frame from NetFpgaData into a byte array (Fig. 6).
  static void GetFrame(const NetFpgaData& src, std::vector<u8>& dst);

  // Moves the contents of a byte array into the frame field (Fig. 6).
  static void SetFrame(const std::vector<u8>& src, NetFpgaData& dst);

  // Reads the port on which the frame was received (Fig. 6).
  static u32 ReadInputPort(const NetFpgaData& dataplane);

  // Sets the output port to a specific value (Fig. 6). A port past the last
  // one is a fatal error in every build type.
  static void SetOutputPort(NetFpgaData& dataplane, u64 port);

  // Sets the output mask to all ports except the input (Fig. 2 line 8).
  static void Broadcast(NetFpgaData& dataplane);

  // Raw one-hot mask variant, for services that multicast.
  static void SetOutputMask(NetFpgaData& dataplane, u8 mask);

  // Send back out of the port the frame arrived on (request/response
  // services: ICMP echo, DNS, Memcached).
  static void SendBackToSource(NetFpgaData& dataplane);
};

}  // namespace emu

#endif  // SRC_NETFPGA_DATAPLANE_H_
