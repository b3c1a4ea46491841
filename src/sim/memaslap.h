// memaslap-style Memcached workload generator (§5.4).
//
// The paper's Memcached evaluation uses memaslap "configured to use a mix of
// 90% GET and 10% SET requests with random keys". MemaslapLoadgen produces
// that stream as ready-to-inject UDP frames, plus the prewarm SETs that
// populate the store, from a deterministic seed.
#ifndef SRC_SIM_MEMASLAP_H_
#define SRC_SIM_MEMASLAP_H_

#include <string>

#include "src/common/rng.h"
#include "src/net/mac_address.h"
#include "src/net/memcached.h"
#include "src/net/packet.h"

namespace emu {

struct MemaslapConfig {
  MacAddress server_mac;
  Ipv4Address server_ip;
  MacAddress client_mac = MacAddress::FromU48(0x02'00'00'00'c1'00);
  Ipv4Address client_ip = Ipv4Address(10, 0, 0, 77);
  McProtocol protocol = McProtocol::kAscii;
  double get_fraction = 0.9;  // the 90/10 mix
  usize key_space = 1000;
  usize key_bytes = 6;    // the paper's initial prototype sizes
  usize value_bytes = 8;
  u64 seed = 1234;
};

class MemaslapLoadgen {
 public:
  // Aborts, in every build type, when key_bytes < 4 or key_space == 0.
  explicit MemaslapLoadgen(MemaslapConfig config);

  // SET frames that populate every key once.
  Packet PrewarmFrame(usize index);
  usize prewarm_count() const { return config_.key_space; }

  // The i-th workload frame: GET with probability get_fraction, else SET,
  // uniform random key.
  Packet WorkloadFrame(usize index);

  // Fraction of frames that were GETs so far (for test assertions).
  double ObservedGetFraction() const;

  const MemaslapConfig& config() const { return config_; }

 private:
  std::string KeyName(usize key) const;
  std::string ValueFor(usize key) const;
  Packet MakeFrame(const McRequest& request);

  MemaslapConfig config_;
  Rng rng_;
  u64 gets_ = 0;
  u64 total_ = 0;
};

}  // namespace emu

#endif  // SRC_SIM_MEMASLAP_H_
