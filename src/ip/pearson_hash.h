// Pearson hashing IP block with the paper's streaming/seed handshake.
//
// Fig. 5 shows the C# wrapper for seeding this core: two handshake signals
// (init_hash_ready / init_hash_enable) and an 8-bit data bus. The module here
// exposes exactly those signals as clocked registers, plus a byte-stream
// hashing path, so services interface with it the way the paper's code does.
// A pure software PearsonHash64() of the same function is provided for the
// CPU target and for checking hardware results in tests.
#ifndef SRC_IP_PEARSON_HASH_H_
#define SRC_IP_PEARSON_HASH_H_

#include <array>
#include <span>

#include "src/hdl/module.h"
#include "src/hdl/process.h"
#include "src/hdl/signal.h"

namespace emu {

// 64-bit Pearson hash: eight parallel 8-bit Pearson lanes, lane i seeded with
// (first_byte + i) as in Pearson's original widening construction.
u64 PearsonHash64(std::span<const u8> data);
// The hash of `key`'s eight bytes, least significant first.
u64 PearsonHash64(u64 key);

// The core's 256-entry permutation table (exposed for tests).
std::span<const u8> PearsonTable();

class PearsonHashIp : public Module {
 public:
  PearsonHashIp(Simulator& sim, std::string name);

  // --- Raw core signals (Fig. 5 protocol) ---
  // High when the core can accept a byte this cycle.
  Reg<bool>& init_hash_ready() { return ready_; }
  // Pulsed high by the client for one cycle, with data_in valid.
  Reg<bool>& init_hash_enable() { return enable_; }
  Reg<u8>& data_in() { return data_in_; }
  // Running 64-bit digest of all bytes accepted since the last Clear().
  Reg<u64>& hash_out() { return hash_out_; }

  void Clear();

  // The core's internal process; the owner must add it to the simulator:
  //   sim.AddProcess(hash.MakeProcess(), "pearson");
  HwProcess MakeProcess();

  // Declares the core process's register IO (emu-lint): the client drives
  // enable/data_in; the core drives ready/hash_out and reads ready back
  // before it absorbs a byte.
  void DeclareIo(usize process_index) {
    elab::IoDecl(sim().catalog(), process_index)
        .Reads(&enable_)
        .Reads(&data_in_)
        .Reads(&ready_)
        .Writes(&ready_)
        .Writes(&hash_out_);
  }

  // Client process implementing the Fig. 5 wrapper verbatim, once per byte
  // of `data`: waits for ready, presents the byte, pulses enable, and waits
  // for ready again. It completes once the last byte is absorbed; `data`
  // must outlive it.
  static HwProcess Seed(PearsonHashIp& core, std::span<const u8> data);

 private:
  Reg<bool> ready_;
  Reg<bool> enable_;
  Reg<u8> data_in_;
  Reg<u64> hash_out_;
  std::array<u64, 8> lanes_{};
  bool seeded_ = false;
};

}  // namespace emu

#endif  // SRC_IP_PEARSON_HASH_H_
