#include "src/netfpga/dataplane.h"

#include <cstdio>
#include <cstdlib>

namespace emu {

void NetFpga::GetFrame(const NetFpgaData& src, std::vector<u8>& dst) {
  const auto bytes = src.tdata.bytes();
  dst.assign(bytes.begin(), bytes.end());
}

void NetFpga::SetFrame(const std::vector<u8>& src, NetFpgaData& dst) {
  dst.tdata.Resize(src.size());
  auto out = dst.tdata.bytes();
  for (usize i = 0; i < src.size(); ++i) {
    out[i] = src[i];
  }
}

u32 NetFpga::ReadInputPort(const NetFpgaData& dataplane) { return dataplane.tdata.src_port(); }

void NetFpga::SetOutputPort(NetFpgaData& dataplane, u64 port) {
  // Checked in every build type: past the last port the one-hot mask would
  // name no port (the frame vanishes without a drop count) or, from 32 up,
  // shift out of range.
  if (port >= kNetFpgaPortCount) [[unlikely]] {
    std::fprintf(stderr, "emu: fatal: NetFpga::SetOutputPort: port %llu out of range (%zu ports)\n",
                 static_cast<unsigned long long>(port), kNetFpgaPortCount);
    std::abort();
  }
  dataplane.tdata.set_dst_port_mask(static_cast<u8>(1u << port));
  dataplane.output_valid = true;
}

void NetFpga::Broadcast(NetFpgaData& dataplane) {
  const u8 in = dataplane.tdata.src_port();
  dataplane.tdata.set_dst_port_mask(kAllPortsMask & static_cast<u8>(~(1u << in)));
  dataplane.output_valid = true;
}

void NetFpga::SetOutputMask(NetFpgaData& dataplane, u8 mask) {
  dataplane.tdata.set_dst_port_mask(mask & kAllPortsMask);
  dataplane.output_valid = mask != 0;
}

void NetFpga::SendBackToSource(NetFpgaData& dataplane) {
  SetOutputPort(dataplane, dataplane.tdata.src_port());
}

}  // namespace emu
