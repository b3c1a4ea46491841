// Memcached server (§4.3, extended per §5.4).
//
// GET/SET/DELETE over UDP, binary or ASCII protocol. The paper's first
// prototype was latency-only (binary protocol, 6-byte keys, 8-byte values);
// later extensions added the ASCII protocol, larger sizes, DRAM, and
// multiple cores — all of which are configuration here:
//   - `protocol` selects binary/ASCII (the Table 4 evaluation uses ASCII);
//   - `backend` selects on-chip BRAM (low constant latency) or on-board
//     DRAM (bigger but slower and refresh-jittered), the §5.4 trade-off;
//   - `cores` > 1 instantiates one store+worker per core, GETs dispatched by
//     input port, SETs/DELETEs replicated to every core (which is why SET
//     throughput does not scale, §5.4).
// Storage is the Fig. 9 LRU block per core: full entries live in a slot
// array; the LRU index maps Pearson-hashed keys to slots.
#ifndef SRC_SERVICES_MEMCACHED_SERVICE_H_
#define SRC_SERVICES_MEMCACHED_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/service.h"
#include "src/debug/extension_point.h"
#include "src/ip/cam.h"
#include "src/ip/checksum_unit.h"
#include "src/ip/dram_model.h"
#include "src/net/mac_address.h"
#include "src/net/memcached.h"
#include "src/services/lru_cache.h"

namespace emu {

enum class McBackend {
  kOnChip,  // BRAM: constant 1-cycle word access
  kDram,    // on-board DRAM: higher, variable latency (refresh)
};

struct MemcachedConfig {
  MacAddress mac = MacAddress::FromU48(0x02'00'00'00'ee'04);
  Ipv4Address ip = Ipv4Address(10, 0, 0, 211);
  McProtocol protocol = McProtocol::kAscii;  // as in the Table 4 setup
  McBackend backend = McBackend::kOnChip;
  usize capacity = 4096;        // entries per core
  usize max_key_bytes = 250;    // paper prototype: 6; later relaxed
  usize max_value_bytes = 1024;  // paper prototype: 8; later relaxed
  usize cores = 1;
  usize bus_bytes = 32;
  // Calibrated tail of the per-request FSM beyond the modelled parse/hash/
  // store costs (Table 4: ~103 cycles total -> 1.9 Mq/s, 1.21 us).
  Cycle turnaround_cycles = 65;

  // §5.4's scaling suggestion, implemented: "further scaling can be achieved
  // by using the Emu-based design as a (large) L1 cache ... where cache
  // misses are sent to a host". When enabled, GET misses are forwarded out
  // of `host_port` instead of answered; host replies coming back on that
  // port fill the cache and are forwarded to the requesting client's port
  // (learned per client MAC). SETs/DELETEs stay local to the cache tier.
  bool l1_cache_mode = false;
  u8 host_port = 0;
};

class MemcachedService : public Service {
 public:
  explicit MemcachedService(MemcachedConfig config = {});
  ~MemcachedService() override;

  std::string_view name() const override { return "emu_memcached"; }
  void Instantiate(Simulator& sim, Dataplane dp) override;
  ResourceUsage Resources() const override;
  Cycle ModuleLatency() const override { return 16; }
  Cycle InitiationInterval() const override { return 24; }
  void RegisterMetrics(MetricsRegistry& registry) override;

  // emu-chain: clients sit upstream on port 1. A plain server is a chain
  // tail (no downstream egress); the L1 tier forwards misses out of
  // `host_port`, which therefore continues downstream toward the pool.
  ChainStageIo ChainIo() const override {
    ChainStageIo io;
    io.forward_in_port = 1;
    io.reply_in_port = config_.host_port;
    io.downstream_mask =
        config_.l1_cache_mode ? static_cast<u8>(1u << config_.host_port) : u8{0};
    io.forward_mac = config_.mac;
    io.reply_mac = config_.mac;
    // The host tier's replies are routed by the client CAM, which binds the
    // requester MACs seen at ingress — the upstream neighbor under hop-by-hop
    // chain transport.
    io.reply_to_upstream = config_.l1_cache_mode;
    return io;
  }

  // Reproduces the §5.5 checksum bug: reply UDP checksums are computed by a
  // hardware unit whose carry fold is broken. Invisible on short replies,
  // wrong on longer ones — found in the paper via direction packets.
  void InjectChecksumBug(bool enabled);
  bool checksum_bug_injected() const;

  // §5.5: extends the service for direction. Binds controller-visible
  // variables — notably `checksum`, the last UDP checksum the hardware
  // computed (reporting it over direction packets is how the paper's authors
  // found their checksum bug) and the writable `inject_bug` knob — and adds
  // the main-loop extension point. Call before Instantiate().
  void AttachController(DirectionController* controller);

  // emu-fault: generalises the §5.5 flag into plan-driven points —
  // `memcached.csum.fold` (the carry-fold bug) plus one FIFO-stall target
  // per worker queue (`memcached.queue<i>`). Call after Instantiate().
  void RegisterFaultPoints(FaultRegistry& registry) override;

  u64 gets() const { return gets_; }
  u64 get_hits() const { return get_hits_; }
  u64 sets() const { return sets_; }
  u64 deletes() const { return deletes_; }
  u64 dropped() const { return dropped_; }
  u64 misses_forwarded() const { return misses_forwarded_; }
  u64 host_replies_forwarded() const { return host_replies_forwarded_; }
  u64 cache_fills() const { return cache_fills_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    u32 flags = 0;
    bool used = false;

    // Overwrites the slot in place, reusing its strings' buffers.
    void Store(const std::string& new_key, const std::string& new_value, u32 new_flags) {
      key = new_key;
      value = new_value;
      flags = new_flags;
      used = true;
    }
  };

  struct CoreState {
    std::unique_ptr<LruCacheBlock> index;
    std::vector<Entry> slots;
    std::unique_ptr<SyncFifo<Packet>> queue;
  };

  HwProcess Dispatcher();
  HwProcess Worker(usize core);
  // Runs `request` against `core`'s store. The response borrows the
  // request's key and, on a GET hit, the store entry's value: write it out
  // before anything can store into that entry again.
  McResponseView Execute(usize core, const McRequest& request);
  Cycle StoreAccessCycles(usize core, usize bytes);
  // L1-cache mode: fills every core's cache from the UDP payload of a host
  // tier's reply.
  void FillCacheFromHostReply(std::span<const u8> payload);

  MemcachedConfig config_;
  Dataplane dp_;
  std::vector<CoreState> cores_;
  std::unique_ptr<DramModel> dram_;
  std::unique_ptr<ChecksumUnit> checksum_unit_;
  Simulator* sim_ = nullptr;
  DirectionController* controller_ = nullptr;
  ExtensionPoint main_point_;
  u64 last_checksum_ = 0;
  ResourceUsage control_resources_;
  u64 gets_ = 0;
  u64 get_hits_ = 0;
  u64 sets_ = 0;
  u64 deletes_ = 0;
  u64 dropped_ = 0;
  // L1-cache mode state: client MAC -> FPGA port bindings for routing host
  // replies back, plus the tier statistics.
  std::unique_ptr<Cam> client_ports_;
  usize client_slot_ = 0;
  u64 misses_forwarded_ = 0;
  u64 host_replies_forwarded_ = 0;
  u64 cache_fills_ = 0;
};

}  // namespace emu

#endif  // SRC_SERVICES_MEMCACHED_SERVICE_H_
