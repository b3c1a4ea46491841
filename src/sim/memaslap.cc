#include "src/sim/memaslap.h"

#include <cstdio>

#include "src/common/fatal.h"
#include "src/net/udp.h"

namespace emu {

MemaslapLoadgen::MemaslapLoadgen(MemaslapConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.key_bytes < 4) {
    Fatal("MemaslapLoadgen", "key_bytes %zu is below 4", config_.key_bytes);
  }
  if (config_.key_space == 0) {
    Fatal("MemaslapLoadgen", "key_space is 0: no key to draw");
  }
}

std::string MemaslapLoadgen::KeyName(usize key) const {
  // Fixed-width keys ("k0042") padded to key_bytes.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%0*zu", static_cast<int>(config_.key_bytes - 1), key);
  return std::string(buf).substr(0, config_.key_bytes);
}

std::string MemaslapLoadgen::ValueFor(usize key) const {
  std::string value(config_.value_bytes, 'v');
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", key);
  for (usize i = 0; i < value.size() && buf[i] != '\0'; ++i) {
    value[i] = buf[i];
  }
  return value;
}

Packet MemaslapLoadgen::MakeFrame(const McRequest& request) {
  return MakeUdpPacket({config_.server_mac, config_.client_mac, config_.client_ip,
                        config_.server_ip, 31337, kMemcachedPort},
                       BuildMcRequest(request));
}

Packet MemaslapLoadgen::PrewarmFrame(usize index) {
  McRequest request;
  request.protocol = config_.protocol;
  request.op = McOpcode::kSet;
  request.key = KeyName(index % config_.key_space);
  request.value = ValueFor(index % config_.key_space);
  return MakeFrame(request);
}

Packet MemaslapLoadgen::WorkloadFrame(usize) {
  const usize key = rng_.NextBelow(config_.key_space);
  McRequest request;
  request.protocol = config_.protocol;
  request.key = KeyName(key);
  ++total_;
  if (rng_.NextBool(config_.get_fraction)) {
    request.op = McOpcode::kGet;
    ++gets_;
  } else {
    request.op = McOpcode::kSet;
    request.value = ValueFor(key);
  }
  return MakeFrame(request);
}

double MemaslapLoadgen::ObservedGetFraction() const {
  return total_ == 0 ? 0.0 : static_cast<double>(gets_) / static_cast<double>(total_);
}

}  // namespace emu
