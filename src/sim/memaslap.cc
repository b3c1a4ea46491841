#include "src/sim/memaslap.h"

#include <algorithm>
#include <charconv>

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

namespace {

// The decimal digits of `n`, in `digits`; returns how many.
usize FormatDecimal(usize n, char (&digits)[20]) {
  return static_cast<usize>(std::to_chars(digits, digits + sizeof(digits), n).ptr - digits);
}

}  // namespace

std::string MemaslapLoadgen::KeyName(usize key) const {
  // Fixed-width keys ("k00042"): 'k', then the key's digits zero-padded to
  // key_bytes - 1, or their first key_bytes - 1 when there are more.
  char digits[20] = {};
  const usize width = config_.key_bytes - 1;
  const usize kept = std::min(FormatDecimal(key, digits), width);
  std::string name(config_.key_bytes, '0');
  name[0] = 'k';
  std::copy_n(digits, kept, name.begin() + static_cast<isize>(1 + width - kept));
  return name;
}

std::string MemaslapLoadgen::ValueFor(usize key) const {
  // value_bytes of 'v', the first of them overwritten by the key's digits.
  char digits[20] = {};
  std::string value(config_.value_bytes, 'v');
  const usize kept = std::min(FormatDecimal(key, digits), value.size());
  std::copy_n(digits, kept, value.begin());
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
